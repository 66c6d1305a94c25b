package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run around
// the benchmark's own calls. Parent is the ID of the span that caused it
// (0 for a root); every span of one training job shares its job's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // work items covered, e.g. batches
}

// spans keeps every recorded span in memory until write. A nil *spans
// records nothing, which is how untraced runs stay uninstrumented.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its ID and a function that closes it.
func (s *spans) begin(name string, parent int64, rank int) (int64, func(count int64)) {
	if s == nil {
		return 0, func(int64) {}
	}
	s.mu.Lock()
	s.next++
	id := s.next
	s.mu.Unlock()
	start := time.Since(s.epoch).Nanoseconds()
	return id, func(count int64) {
		end := time.Since(s.epoch).Nanoseconds()
		s.mu.Lock()
		s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Rank: rank, Start: start, End: end, Count: count})
		s.mu.Unlock()
	}
}

// write stores the spans as JSON lines, preceded by one header line.
func (s *spans) write(path string, header any) error {
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
