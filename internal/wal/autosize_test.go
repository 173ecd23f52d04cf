package wal

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// slowSink is a captureSink whose Sync stalls, keeping the buffer full long
// enough for the auto-sizer's buffer-full signal to cross its threshold.
type slowSink struct {
	captureSink
	delay time.Duration
}

func (s *slowSink) Sync() error {
	time.Sleep(s.delay)
	return s.captureSink.Sync()
}

// TestAutoSizeBufferGrows drives a deliberately undersized buffer against a
// slow sink and checks that the ring grows (power-of-two, capped), that every
// appended record survives byte-identically across the swaps, and that the
// growth is visible in TailStats.
func TestAutoSizeBufferGrows(t *testing.T) {
	// The subtest name says which reservation runs: fetch-and-add, not the
	// latched one. Fetch-and-add is the only reservation the log has.
	t.Run("latched=false", testAutoSizeBufferGrows)
}

func testAutoSizeBufferGrows(t *testing.T) {
	sink := &slowSink{delay: 2 * time.Millisecond}
	l := New(Config{
		Durable:        sink,
		DropAfterFlush: true,
		BufferBytes:    minLogBufferBytes,
		AutoSizeBuffer: true,
		BufferMaxBytes: 64 << 10,
	})
	const (
		appenders = 4
		perApp    = 400
	)
	payload := bytes.Repeat([]byte{0xAB}, 64)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perApp; i++ {
				rec := Record{
					XID:   uint64(g)<<32 | uint64(i),
					Type:  RecUpdate,
					Table: uint32(g),
					Page:  uint64(i),
					After: payload,
				}
				if _, err := l.Append(rec); err != nil {
					t.Errorf("append g=%d i=%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Flush(l.LastLSN()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	ts := l.TailStats()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if ts.BufferGrows == 0 {
		t.Fatalf("expected at least one auto-size grow (buffer-full wait %v, buffer %d bytes)",
			ts.BufferFullWait, ts.BufferBytes)
	}
	if ts.BufferBytes <= minLogBufferBytes || ts.BufferBytes > 64<<10 {
		t.Fatalf("grown buffer size %d out of range (%d, %d]", ts.BufferBytes, minLogBufferBytes, 64<<10)
	}
	if ts.BufferBytes&(ts.BufferBytes-1) != 0 {
		t.Fatalf("grown buffer size %d not a power of two", ts.BufferBytes)
	}
	if ts.BufferFullWait == 0 {
		t.Fatalf("buffer-full wait signal never accumulated despite %d grows", ts.BufferGrows)
	}
	recs := decodeAll(t, sink.bytes(), 1)
	if len(recs) != appenders*perApp {
		t.Fatalf("decoded %d records, want %d", len(recs), appenders*perApp)
	}
	for _, rec := range recs {
		if !bytes.Equal(rec.After, payload) {
			t.Fatalf("record %d/%d: payload corrupted across ring growth", rec.XID, rec.LSN)
		}
	}
}

// TestAutoSizeBufferCapped checks the grow never exceeds BufferMaxBytes.
func TestAutoSizeBufferCapped(t *testing.T) {
	sink := &slowSink{delay: 3 * time.Millisecond}
	l := New(Config{
		Durable:        sink,
		DropAfterFlush: true,
		BufferBytes:    minLogBufferBytes,
		AutoSizeBuffer: true,
		BufferMaxBytes: 8 << 10, // one doubling only
	})
	payload := bytes.Repeat([]byte{0x5A}, 128)
	for i := 0; i < 2000; i++ {
		if _, err := l.Append(Record{XID: uint64(i), Type: RecUpdate, After: payload}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Flush(l.LastLSN()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	ts := l.TailStats()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if ts.BufferBytes > 8<<10 {
		t.Fatalf("buffer grew past its cap: %d > %d", ts.BufferBytes, 8<<10)
	}
	if ts.BufferGrows > 1 {
		t.Fatalf("expected at most one grow under an 8 KiB cap, got %d", ts.BufferGrows)
	}
}
