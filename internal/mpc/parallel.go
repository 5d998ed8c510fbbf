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
// work and is returned; all started goroutines are waited for before
// returning.
func (c *Cluster) ForSmall(fn func(i int) error) error {
	return parallelN(c.k, fn)
}

// parallelN runs fn(0..n-1) on a bounded worker pool and returns the first
// error encountered.
func parallelN(n int, fn func(i int) error) error {
	return forN(n, nil, fn)
}

// forN is the one worker loop behind Each and ForSmall. It runs each(i) for
// i in 0..n-1 or, when each is nil, try(i), stopping at try's first error.
// Taking both callback shapes here keeps Each free of an adapter closure.
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
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if each != nil {
					each(i)
				} else if err := try(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
