package mpc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs fn(i) for every small machine i, distributing the calls over a
// bounded pool of goroutines (the simulator's stand-in for the machines
// computing locally in parallel between rounds). fn must only touch machine
// i's state. In the model a local step is free and cannot be refused, and
// Each's type says so: there is no error to check.
func (c *Cluster) Each(fn func(i int)) {
	_ = forN(c.k, fn, nil) // forN only ever returns an error that try returned
}

// ForSmall is Each for the rare local step that can fail (a payload type
// assertion on a received message). The first error aborts scheduling of new
// work; all started goroutines are waited for, and the error of the lowest
// failing machine is returned — the one a serial loop would return, whatever
// the goroutine timing.
func (c *Cluster) ForSmall(fn func(i int) error) error {
	return forN(c.k, nil, fn)
}

// forN is the one worker loop behind Each and ForSmall. It runs each(i) for
// i in 0..n-1 or, when each is nil, try(i), stopping at try's first error.
// Taking both callback shapes here keeps Each free of an adapter closure.
//
// Indices are handed out in increasing order, so when index i fails every
// index below it has already started; waiting for them and keeping the
// lowest failing index makes the returned error the serial loop's.
func forN(n int, each func(i int), try func(i int) error) error {
	workers := 2*runtime.GOMAXPROCS(0) + 2 //hetlint:nondet worker-pool sizing only; engine outputs are pinned bit-identical across pool widths by the GOMAXPROCS golden sweeps
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if each != nil {
				each(i)
			} else if err := try(i); err != nil {
				return err
			}
		}
		return nil
	}
	// The calling goroutine is one of the workers.
	p := &pool{n: n, each: each, try: try}
	p.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go p.work()
	}
	p.work()
	p.wg.Wait()
	return p.err
}

// pool is one forN call's shared state, one allocation whatever the number
// of workers: the callbacks, the next index to hand out, and the lowest
// failing index with its error.
type pool struct {
	n      int
	each   func(i int)
	try    func(i int) error
	next   atomic.Int64
	wg     sync.WaitGroup
	failed atomic.Bool
	mu     sync.Mutex
	i      int
	err    error
}

// work is one worker: it takes indices until they run out or one fails.
func (p *pool) work() {
	defer p.wg.Done()
	for !p.failed.Load() {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if p.each != nil {
			p.each(i)
		} else if err := p.try(i); err != nil {
			p.mu.Lock()
			if p.err == nil || i < p.i {
				p.i, p.err = i, err
			}
			p.mu.Unlock()
			p.failed.Store(true)
			return
		}
	}
}
