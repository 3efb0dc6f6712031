package stats

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(2)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*1000+8*2 {
		t.Errorf("Counter = %d, want %d", got, 8*1000+8*2)
	}
}

func TestHighWaterConcurrent(t *testing.T) {
	var h HighWater
	var wg sync.WaitGroup
	const workers = 6
	gate := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Enter()
			<-gate // hold all workers in flight together
			h.Exit()
		}()
	}
	// Wait until every worker has entered, then release.
	for h.Current() != workers {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if h.Current() != 0 {
		t.Errorf("Current = %d after all exits", h.Current())
	}
	if h.Max() != workers {
		t.Errorf("Max = %d, want %d", h.Max(), workers)
	}
}
