// Package good holds noalloc fixtures that must stay silent: the
// stack-friendly idioms the annotation deliberately allows, and
// unannotated functions where anything goes.
package good

type point struct{ x, y int }

type ring struct {
	buf  []int
	done chan struct{}
}

//gompilint:noalloc
func hotLocals(r *ring, v int) int {
	p := point{v, v}               // composite built into a local stays on the stack
	r.buf = append(r.buf, p.x)     // self-append ring idiom
	r.done <- struct{}{}           // zero-sized value: nothing to box
	f := func() int { return p.y } // local closure, never escapes
	return f()
}

//gompilint:noalloc
func hotReslice(r *ring) int {
	s := r.buf[:0]
	s = append(s, 1) // still the preallocated backing array
	return len(s)
}

//gompilint:noalloc
func hotPointerIface(p *point) interface{} {
	return p // pointer-shaped: rides in the interface word for free
}

//gompilint:noalloc
func hotIfaceToIface(e error) interface{} {
	return e // interface to interface: no boxing
}

//gompilint:noalloc
func hotInPlace(v int) int {
	n := 0
	func() { n = v }() // invoked in place: the closure can stack-allocate
	return n
}

// coldPath has no annotation: the analyzer has no opinion.
func coldPath() []byte {
	return make([]byte, 64)
}
