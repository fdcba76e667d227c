package matrix

import (
	"fmt"
	"sync"
)

// Pool is a size-keyed free list of Dense matrices, from which
// repeated numeric multiplies could draw their recursion temporaries
// instead of allocating them fresh on every build.
//
// The zero value is ready to use. A Pool is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free map[[2]int][]*Dense
}

// Get returns an r×c matrix, recycling a previously Put one when a
// matching size is cached. The contents are undefined: callers that
// need zeroed storage must Zero it themselves. (The Strassen
// temporaries are fully overwritten before being read, so the numeric
// path skips the clear.)
func (p *Pool) Get(r, c int) *Dense {
	key := [2]int{r, c}
	p.mu.Lock()
	if list := p.free[key]; len(list) > 0 {
		m := list[len(list)-1]
		p.free[key] = list[:len(list)-1]
		p.mu.Unlock()
		return m
	}
	p.mu.Unlock()
	return New(r, c)
}

// Put returns matrices to the pool for reuse. Views are rejected with
// a panic: a view shares storage with its parent, so recycling it
// would alias two unrelated "scratch" matrices.
func (p *Pool) Put(ms ...*Dense) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[[2]int][]*Dense)
	}
	for _, m := range ms {
		if m == nil {
			continue
		}
		if m.IsShape() {
			panic(fmt.Sprintf("matrix: Pool.Put of a shape-only %dx%d matrix", m.rows, m.cols))
		}
		if m.IsView() {
			panic(fmt.Sprintf("matrix: Pool.Put of a %dx%d view", m.rows, m.cols))
		}
		key := [2]int{m.rows, m.cols}
		p.free[key] = append(p.free[key], m)
	}
}

// Len returns the number of matrices currently cached.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.free {
		n += len(list)
	}
	return n
}
