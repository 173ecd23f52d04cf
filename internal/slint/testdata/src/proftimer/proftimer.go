// Package proftimer exercises the proftimer analyzer: profiler timings
// must reach their time.Since stop on every return path.
package proftimer

import (
	"errors"
	"time"

	"profiler"
)

var errBoom = errors.New("boom")

func work() error { return nil }

// leakyFlush is the preCommit bug shape: the error return skips the Add, so
// CatLogFlush under-reports exactly when the flush failed.
func leakyFlush(prof *profiler.Handle) error {
	flushStart := time.Now()
	if err := work(); err != nil {
		return err // want `return without stopping profiler timing "flushStart"`
	}
	prof.Add(profiler.CatLogFlush, time.Since(flushStart))
	return nil
}

// coveredFlush stops the timer on both paths.
func coveredFlush(prof *profiler.Handle) error {
	flushStart := time.Now()
	if err := work(); err != nil {
		prof.Add(profiler.CatLogFlush, time.Since(flushStart))
		return err
	}
	prof.Add(profiler.CatLogFlush, time.Since(flushStart))
	return nil
}

// deferredFlush covers every return path with one defer.
func deferredFlush(prof *profiler.Handle) error {
	flushStart := time.Now()
	defer func() { prof.Add(profiler.CatLogFlush, time.Since(flushStart)) }()
	if err := work(); err != nil {
		return err
	}
	return nil
}

// appendTimed mirrors the real convention: the Since result flows through
// an intermediate before feeding several Add calls, and the early return
// still leaks it.
func appendTimed(prof *profiler.Handle, reserveWait time.Duration) error {
	start := time.Now()
	err := work()
	if err != nil {
		return err // want `return without stopping profiler timing "start"`
	}
	total := time.Since(start)
	prof.Add(profiler.CatLogReserveWait, reserveWait)
	prof.Add(profiler.CatWork, total-reserveWait)
	return nil
}

// conditionalStart is the applyUndo shape: timing only happens when a
// profiler is attached, so path coverage is not the analyzer's business.
func conditionalStart(prof *profiler.Handle) error {
	var start time.Time
	if prof != nil {
		start = time.Now()
	}
	if err := work(); err != nil {
		return err
	}
	if prof != nil {
		prof.Add(profiler.CatWork, time.Since(start))
	}
	return nil
}

// panicPath: a path that cannot return does not need a stop.
func panicPath(prof *profiler.Handle) {
	start := time.Now()
	if err := work(); err != nil {
		panic(err)
	}
	prof.Add(profiler.CatWork, time.Since(start))
}

// plainDeadline never feeds the profiler; not a profiler timing at all.
func plainDeadline() error {
	start := time.Now()
	if err := work(); err != nil {
		return err
	}
	if time.Since(start) > time.Second {
		return errBoom
	}
	return nil
}

// suppressed records the deliberate exception.
func suppressed(prof *profiler.Handle) error {
	start := time.Now()
	if err := work(); err != nil {
		return err //slint:ignore proftimer fixture: abandonment of the sample is intended here
	}
	prof.Add(profiler.CatWork, time.Since(start))
	return nil
}

// leakyHandleClock is leakyFlush through the handle's clock-free pair: the
// error return skips the AddSince.
func leakyHandleClock(prof *profiler.Handle) error {
	flushStart := prof.Start()
	if err := work(); err != nil {
		return err // want `return without stopping profiler timing "flushStart"`
	}
	prof.AddSince(profiler.CatLogFlush, flushStart)
	return nil
}

// coveredHandleClock stops the handle timer on both paths, once with a wait
// excluded by shifting the start.
func coveredHandleClock(prof *profiler.Handle, wait time.Duration) error {
	start := prof.Start()
	if err := work(); err != nil {
		prof.AddSince(profiler.CatWork, start)
		return err
	}
	prof.AddSince(profiler.CatWork, start.Add(wait))
	return nil
}

// leakyExcludedWait leaks a handle timer whose stop excludes a wait.
func leakyExcludedWait(prof *profiler.Handle, wait time.Duration) error {
	start := prof.Start()
	if err := work(); err != nil {
		return err // want `return without stopping profiler timing "start"`
	}
	prof.AddSince(profiler.CatWork, start.Add(wait))
	return nil
}

// leakyProfilerSince splits a handle timer through profiler.Since and an
// intermediate, and still leaks it on the early return.
func leakyProfilerSince(prof *profiler.Handle) error {
	start := prof.Start()
	if err := work(); err != nil {
		return err // want `return without stopping profiler timing "start"`
	}
	wall := profiler.Since(start)
	prof.Add(profiler.CatWork, wall)
	return nil
}
