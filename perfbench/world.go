package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

// runLimit bounds one call of world.run: a training job or a layer probe
// takes a few seconds, so a world still running after this has hung.
var runLimit = 60 * time.Second

// world is the set of rank endpoints one benchmark process hosts. A
// one-rank world is the in-process runtime with no sockets; larger worlds
// move every frame over localhost TCP.
type world struct {
	comms []*mpi.Comm
	tcp   bool
	// hung is set when a run missed runLimit; its endpoints are closed
	// and the world cannot be used again.
	hung bool
}

// openWorld connects size ranks. TCP worlds bootstrap through a rendezvous
// listener bound before any rank starts, so a peer's first dial always
// finds it listening and bootstrap never sleeps in dial backoff.
func openWorld(size int, compress bool) (*world, error) {
	if size == 1 {
		comms, _, err := transporttest.Inproc().Open(1)
		return &world{comms: comms}, err
	}
	comms, _, err := transporttest.TCPWrapped("tcp", nil, func(_ int, c *tcp.Config) {
		c.Compress = compress
	}).Open(size)
	if err != nil {
		return nil, err
	}
	return &world{comms: comms, tcp: true}, nil
}

// run executes fn once per rank, concurrently, and returns the joined rank
// errors. A failing rank aborts its peers so none is left blocked in a
// collective. If the ranks have not all returned within runLimit, run
// aborts and closes every endpoint and reports the world as hung.
func (w *world) run(fn func(c *mpi.Comm) error) error {
	if w.hung {
		return errors.New("world is closed after a hung run")
	}
	errs := make([]error, len(w.comms))
	var wg sync.WaitGroup
	for r, c := range w.comms {
		wg.Add(1)
		go func(r int, c *mpi.Comm) {
			defer wg.Done()
			errs[r] = mpi.Execute(c, fn)
			if errs[r] != nil {
				for _, peer := range w.comms {
					peer.Abort()
				}
			}
		}(r, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return errors.Join(errs...)
	case <-time.After(runLimit):
	}
	w.hung = true
	for _, c := range w.comms {
		c.Abort()
		c.Close()
	}
	return fmt.Errorf("world of %d ranks did not finish within %v", len(w.comms), runLimit)
}

// stats sums the transport byte and frame counters over every rank.
func (w *world) stats() transport.Stats {
	var s transport.Stats
	for _, c := range w.comms {
		st := c.Transport().Stats()
		s.FramesSent += st.FramesSent
		s.FramesRecv += st.FramesRecv
		s.BytesSent += st.BytesSent
		s.BytesRecv += st.BytesRecv
	}
	return s
}

// compression sums the raw and wire bytes of compressed frames over every
// rank.
func (w *world) compression() (raw, wire int64) {
	for _, c := range w.comms {
		if cs, ok := transport.AsCompressionStatser(c.Transport()); ok {
			r, wi := cs.CompressionStats()
			raw += r
			wire += wi
		}
	}
	return raw, wire
}

// close quiesces the world with a barrier and closes every endpoint.
func (w *world) close() error {
	if w.hung {
		return nil // run already closed every endpoint
	}
	var errs []error
	if len(w.comms) > 1 {
		errs = append(errs, w.run(func(c *mpi.Comm) error { c.Barrier(); return nil }))
	}
	if w.hung {
		return errors.Join(errs...)
	}
	for _, c := range w.comms {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}
