package wal

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// captureSink is an in-memory DurableSink + RangeSink that records exactly
// the bytes it was handed, so tests can assert that the consolidated
// buffer's range writes are byte-identical to the records' encodings laid
// out at their byte-offset LSNs.
type captureSink struct {
	mu     sync.Mutex
	data   bytes.Buffer
	ranges int
	syncs  int
}

func (c *captureSink) WriteRecord(rec Record, encoded []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data.Write(encoded)
	return nil
}

func (c *captureSink) WriteRange(encoded []byte, first LSN) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data.Write(encoded)
	c.ranges++
	return nil
}

func (c *captureSink) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncs++
	return nil
}

func (c *captureSink) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.data.Bytes()...)
}

// recordSink is a DurableSink WITHOUT the range fast path (no WriteRange
// method at all), forcing the flusher's per-record compatibility path.
type recordSink struct {
	mu   sync.Mutex
	recs []Record
}

func (r *recordSink) WriteRecord(rec Record, encoded []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
	return nil
}

func (r *recordSink) Sync() error { return nil }

func (r *recordSink) records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Record(nil), r.recs...)
}

// decodeAll decodes every frame in data — a contiguous slice of the virtual
// log starting at offset base — assigning each record its byte-offset LSN,
// and failing the test on any error or trailing garbage.
func decodeAll(t *testing.T, data []byte, base LSN) []Record {
	t.Helper()
	var out []Record
	reader := bytes.NewReader(data)
	at := base
	for {
		rec, pad, frame, err := decodeCounted(reader)
		if err != nil {
			break
		}
		rec.LSN = at.Advance(int64(pad))
		at = at.Advance(int64(pad + frame))
		out = append(out, rec)
	}
	if reader.Len() != 0 {
		t.Fatalf("%d undecodable trailing bytes in sink stream", reader.Len())
	}
	return out
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	cases := []Record{
		{},
		{XID: 1, Type: RecBegin},
		{XID: 1 << 50, Type: RecUpdate, Table: 1 << 20, Page: 1 << 55, Slot: 1 << 30,
			Before: bytes.Repeat([]byte{0xab}, 300), After: bytes.Repeat([]byte{0xcd}, 7)},
		sampleRecord(),
	}
	for i, rec := range cases {
		enc := rec.Encode()
		if got := rec.EncodedSize(); got != len(enc) {
			t.Fatalf("case %d: EncodedSize = %d, Encode produced %d bytes", i, got, len(enc))
		}
		buf := make([]byte, rec.EncodedSize())
		if n := rec.EncodeTo(buf); n != len(enc) || !bytes.Equal(buf[:n], enc) {
			t.Fatalf("case %d: EncodeTo produced different bytes than Encode", i)
		}
	}
}

// verifyStream checks that the sink stream decodes to exactly the appended
// records, each at the byte-offset LSN Append returned, with nothing extra.
func verifyStream(t *testing.T, data []byte, want map[LSN]Record) {
	t.Helper()
	got := decodeAll(t, data, 1)
	if len(got) != len(want) {
		t.Fatalf("sink decoded %d records, want %d", len(got), len(want))
	}
	for _, rec := range got {
		w, ok := want[rec.LSN]
		if !ok {
			t.Fatalf("no record was appended at offset %d", rec.LSN)
		}
		if !reflect.DeepEqual(rec, w) {
			t.Fatalf("LSN %d round-trip mismatch:\nwant %+v\ngot  %+v", rec.LSN, w, rec)
		}
		if !bytes.Equal(rec.Encode(), w.Encode()) {
			t.Fatalf("LSN %d not byte-identical through the shared buffer", rec.LSN)
		}
	}
}

// TestConsolidatedConcurrentAppendsRoundTrip is the core reserve/fill/publish
// correctness test for the fetch-and-add protocol: many appenders race into a
// small buffer (forcing ring wraparound padding and buffer-full waits), and
// the stream handed to the sink must decode to exactly the records appended,
// each at the byte offset its Append returned.
func TestConsolidatedConcurrentAppendsRoundTrip(t *testing.T) {
	// The subtest name says which reservation runs: fetch-and-add, not the
	// latched one. Fetch-and-add is the only reservation the log has.
	t.Run("latched=false", testConsolidatedConcurrentAppendsRoundTrip)
}

func testConsolidatedConcurrentAppendsRoundTrip(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink, DropAfterFlush: true, BufferBytes: 8 << 10})
	const (
		appenders  = 8
		perAppend  = 200
		totalRecs  = appenders * perAppend
		maxPayload = 200
	)
	var mu sync.Mutex
	want := make(map[LSN]Record, totalRecs)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppend; i++ {
				rec := Record{
					XID:   uint64(g + 1),
					Type:  RecUpdate,
					Table: uint32(g),
					Page:  uint64(i),
					Slot:  uint32(i % 7),
					After: bytes.Repeat([]byte{byte(g)}, 1+(g*31+i*17)%maxPayload),
				}
				lsn, err := l.Append(rec)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				rec.LSN = lsn
				mu.Lock()
				want[lsn] = rec
				mu.Unlock()
				// Subscribe occasionally so flushing interleaves with appends.
				if i%32 == 0 {
					//slint:ignore errwedge the subscription only interleaves flushing with appends; the ack is irrelevant
					l.FlushAsync(lsn)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	verifyStream(t, sink.bytes(), want)
	if got, wantEnd := l.DurableLSN(), l.LastLSN(); got != wantEnd {
		t.Fatalf("DurableLSN = %d, want the drained end %d", got, wantEnd)
	}
}

// TestConsolidatedBackpressureDrainsWithoutSubscriptions pins the pressure
// path: a single appender writing more bytes than the buffer holds — with no
// durability subscription anywhere — must not deadlock; blocked reservations
// kick the flusher directly.
func TestConsolidatedBackpressureDrainsWithoutSubscriptions(t *testing.T) {
	sink := &captureSink{}
	l := New(Config{Durable: sink, DropAfterFlush: true, BufferBytes: 4 << 10})
	payload := bytes.Repeat([]byte{0x5a}, 512)
	const n = 64 // 64 * ~520B is several times the buffer
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := l.Append(Record{XID: 1, Type: RecInsert, After: payload}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("appends deadlocked on a full buffer with no flush subscription")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(t, sink.bytes(), 1); len(got) != n {
		t.Fatalf("sink decoded %d records, want %d", len(got), n)
	}
}

// TestConsolidatedMatchesPerRecordSink runs the same appends through a
// range-capable sink and a records-only sink. The range stream carries the
// wraparound padding bytes (they are part of the virtual log); the record
// stream elides them but delivers every record with its byte-offset LSN —
// decoding both must yield the identical record sequence at identical
// addresses.
func TestConsolidatedMatchesPerRecordSink(t *testing.T) {
	fast := &captureSink{}
	slow := &recordSink{}
	lf := New(Config{Durable: fast, DropAfterFlush: true, BufferBytes: 4 << 10})
	ls := New(Config{Durable: slow, DropAfterFlush: true, BufferBytes: 4 << 10})
	for i := 0; i < 300; i++ {
		rec := Record{XID: uint64(i % 5), Type: RecUpdate, Table: 2, Page: uint64(i),
			Before: bytes.Repeat([]byte{1}, i%90), After: bytes.Repeat([]byte{2}, (i*3)%50)}
		if _, err := lf.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := ls.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if fast.ranges == 0 {
		t.Fatal("range fast path never used despite RangeSink implementation")
	}
	fromRanges := decodeAll(t, fast.bytes(), 1)
	fromRecords := slow.records()
	if !reflect.DeepEqual(fromRanges, fromRecords) {
		t.Fatalf("range-written stream decodes differently from per-record stream:\nranges:  %d recs\nrecords: %d recs", len(fromRanges), len(fromRecords))
	}
}

// checkSequentialModel appends recs from one goroutine to a fresh log with
// a bufBytes ring and checks the result against the sequential model of the
// buffer's address assignment: each frame starts where the previous one
// ended, unless it would cross the ring's physical end, in which case the
// leftover tail becomes zero padding and the frame starts the ring's next
// lap. Every LSN must equal the model's (and the value Append returned), and
// after Close the sink's stream must be exactly the model's bytes — the
// records' encodings at their LSNs, zeros only at lap boundaries — and
// decode back to recs in append order.
func checkSequentialModel(t *testing.T, bufBytes int64, recs []Record) {
	t.Helper()
	sink := &captureSink{}
	l := New(Config{Durable: sink, DropAfterFlush: true, BufferBytes: bufBytes})
	ring := l.TailStats().BufferBytes // the configured size after clamping
	next := l.LastLSN()
	var want bytes.Buffer
	lsns := make([]LSN, len(recs))
	for i, rec := range recs {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(rec.EncodedSize())
		phys := next.Distance(0) % ring
		var pad int64
		if phys+n > ring {
			pad = ring - phys
		}
		if lsn != next.Advance(pad) {
			t.Fatalf("record %d: LSN %d, model says %d (previous frame end %d, %d padding bytes)", i, lsn, next.Advance(pad), next, pad)
		}
		want.Write(make([]byte, pad))
		want.Write(rec.Encode())
		lsns[i] = lsn
		next = lsn.Advance(n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.bytes(), want.Bytes()) {
		t.Fatalf("sink stream (%d bytes) differs from the sequential model (%d bytes)", len(sink.bytes()), want.Len())
	}
	got := decodeAll(t, sink.bytes(), 1)
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, appended %d", len(got), len(recs))
	}
	for i, rec := range recs {
		rec.LSN = lsns[i]
		if len(rec.Before) == 0 {
			rec.Before = nil // decodeBody normalizes empty images to nil
		}
		if len(rec.After) == 0 {
			rec.After = nil
		}
		if !reflect.DeepEqual(got[i], rec) {
			t.Fatalf("record %d decoded as %+v, appended %+v", i, got[i], rec)
		}
	}
}

// TestMutexLogModeMatchesConsolidated pins a single appender's stream on a
// ring large enough that no padding occurs against the sequential model — the
// order a single-mutex log would assign addresses and write bytes in.
func TestMutexLogModeMatchesConsolidated(t *testing.T) {
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{XID: 9, Type: RecInsert, Table: 1, Page: uint64(i), After: []byte("payload")})
	}
	checkSequentialModel(t, 0, recs)
}

// TestLatchedMatchesFetchAndAddAcrossWraparound pins the fetch-and-add
// reservation on a tiny ring that wraps many times against the sequential
// model — what a latched (one-reserver-at-a-time) reservation would produce —
// padding placement included.
func TestLatchedMatchesFetchAndAddAcrossWraparound(t *testing.T) {
	var recs []Record
	for i := 0; i < 400; i++ {
		recs = append(recs, Record{XID: uint64(i), Type: RecUpdate, Table: 3, Page: uint64(i),
			After: bytes.Repeat([]byte{byte(i)}, (i*37)%257)})
	}
	checkSequentialModel(t, 4<<10, recs)
}

// TestAppendAllocatesNothing backs the //slint:hotpath claims on
// reserveAtomic, fill and publish at runtime: on the default configuration a
// single-goroutine Append and AppendTimed allocate nothing per record. The
// runs stay far below the buffer size, so no flush cycle runs meanwhile.
func TestAppendAllocatesNothing(t *testing.T) {
	l := New(Config{DropAfterFlush: true})
	defer l.Close()
	rec := Record{XID: 1, Type: RecUpdate, Table: 2, Page: 3, Slot: 4, Before: []byte("before"), After: []byte("after")}
	var err error
	if n := testing.AllocsPerRun(1000, func() { _, err = l.Append(rec) }); n != 0 || err != nil {
		t.Fatalf("Append: %v allocations per call (err %v), want 0", n, err)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _, err = l.AppendTimed(rec) }); n != 0 || err != nil {
		t.Fatalf("AppendTimed: %v allocations per call (err %v), want 0", n, err)
	}
}

// TestFlushAsyncReopenEdge pins the clamp-then-recheck fix: on a log
// reopened at StartLSN with nothing appended yet, subscriptions at or below
// the recovered durable prefix — and subscriptions beyond the last append,
// which clamp down to it — must acknowledge immediately instead of
// registering a waiter that no flush cycle ever satisfies.
func TestFlushAsyncReopenEdge(t *testing.T) {
	// The subtest name says which append path runs: the consolidated ring,
	// not a single-mutex log. The ring is the only append path the log has.
	t.Run("mutexLog=false", testFlushAsyncReopenEdge)
}

func testFlushAsyncReopenEdge(t *testing.T) {
	l := New(Config{StartLSN: 100})
	for _, upTo := range []LSN{0, 1, 50, 99, 100, 1000} {
		select {
		case err := <-l.FlushAsync(upTo):
			if err != nil {
				t.Fatalf("FlushAsync(%d) on reopened empty log: %v", upTo, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("FlushAsync(%d) on reopened empty log never acked (head == StartLSN edge)", upTo)
		}
	}
	// The log still works normally past the recovered prefix.
	lsn, err := l.Append(Record{XID: 1, Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 100 {
		t.Fatalf("first LSN after reopen = %d, want 100", lsn)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacingAppendsNeverLosesAcceptedRecord pins Close's contract
// against the lock-free reservation: an Append racing Close either fails
// (and leaves no record — the claim, if any, is padded out) or succeeds and
// its record is in the sink when Close returns. The race window is a few
// instructions wide (between reserveAtomic's wedge check and its CAS), so
// hammer it.
func TestCloseRacingAppendsNeverLosesAcceptedRecord(t *testing.T) {
	for round := 0; round < 50; round++ {
		sink := &captureSink{}
		l := New(Config{Durable: sink, DropAfterFlush: true, BufferBytes: 8 << 10})
		const appenders = 4
		accepted := make([]map[LSN]Record, appenders)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < appenders; g++ {
			accepted[g] = make(map[LSN]Record)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					rec := Record{XID: uint64(g + 1), Type: RecInsert, Page: uint64(i), After: []byte{byte(g), byte(i)}}
					lsn, err := l.Append(rec)
					if err != nil {
						return
					}
					rec.LSN = lsn
					accepted[g][lsn] = rec
					select {
					case <-stop:
						return
					default:
					}
				}
			}(g)
		}
		// Let the appenders get going, then slam the door.
		time.Sleep(200 * time.Microsecond)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		got := decodeAll(t, sink.bytes(), 1)
		have := make(map[LSN]Record, len(got))
		for _, r := range got {
			have[r.LSN] = r
		}
		for g := range accepted {
			for lsn, want := range accepted[g] {
				r, ok := have[lsn]
				if !ok {
					t.Fatalf("round %d: Append returned (lsn=%d, nil) but Close did not drain the record", round, lsn)
				}
				if !reflect.DeepEqual(r, want) {
					t.Fatalf("round %d: drained record at %d differs: %+v vs %+v", round, lsn, r, want)
				}
			}
		}
	}
}

// stuckSink parks the flusher inside its first write until released, keeping
// the buffer full so tests can observe reservers blocked on space.
type stuckSink struct {
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (s *stuckSink) WriteRecord(rec Record, encoded []byte) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return nil
}

func (s *stuckSink) WriteRange(encoded []byte, first LSN) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return nil
}

func (s *stuckSink) Sync() error { return nil }

// TestConsolidatedCrashFailsBlockedReservers: a reserver blocked on a full
// buffer must wake with the crash error, not hang — even while the flusher
// is wedged inside a sink write and can never drain. The CAS-loop design
// makes this clean: a waiting reserver holds no claim, so failing it leaves
// no hole in the publish fence.
func TestConsolidatedCrashFailsBlockedReservers(t *testing.T) {
	// The subtest name says which reservation runs: fetch-and-add, not the
	// latched one. Fetch-and-add is the only reservation the log has.
	t.Run("latched=false", testConsolidatedCrashFailsBlockedReservers)
}

func testConsolidatedCrashFailsBlockedReservers(t *testing.T) {
	sink := &stuckSink{release: make(chan struct{}), entered: make(chan struct{})}
	defer close(sink.release)
	l := New(Config{BufferBytes: 4 << 10, Durable: sink, DropAfterFlush: true})
	payload := bytes.Repeat([]byte{1}, 1024)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < 16; i++ {
			if _, err := l.Append(Record{XID: 1, Type: RecInsert, After: payload}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	// Wait for the flusher to wedge in the sink, then give the appender time
	// to refill the buffer and block on space that will never be released.
	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached the sink")
	}
	time.Sleep(50 * time.Millisecond)
	l.Crash()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("blocked reserver got %v, want ErrCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reserver stayed blocked across Crash")
	}
}
