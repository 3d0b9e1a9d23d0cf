package main

import (
	"reflect"
	"testing"
	"time"
)

func TestKeySpaceIsTwiceTheCache(t *testing.T) {
	keys := serveKeySpace()
	if n := len(keys); n < 450 || n > 560 {
		t.Fatalf("key space has %d keys, want about 2 x 256", n)
	}
	seen := make(map[keyedRead]bool)
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %v", k)
		}
		seen[k] = true
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	keys := serveKeySpace()
	a := buildSchedule(7, serveOffered, 5*time.Second, keys)
	b := buildSchedule(7, serveOffered, 5*time.Second, keys)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := buildSchedule(8, serveOffered, 5*time.Second, keys)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleMixAndTicks(t *testing.T) {
	const window = 20 * time.Second
	sched := buildSchedule(3, serveOffered, window, serveKeySpace())
	count := map[opClass]int{}
	var last time.Duration
	var ticks []time.Duration
	for _, r := range sched {
		if r.due < last {
			t.Fatal("schedule is not in due order")
		}
		last = r.due
		if r.due >= window {
			t.Fatalf("request due at %v, past the window", r.due)
		}
		count[r.class]++
		if r.class == classTick {
			ticks = append(ticks, r.due)
		}
	}
	requests := count[classRead] + count[classWrite]
	if want := int(serveOffered.rate * window.Seconds()); requests != want {
		t.Errorf("%d requests, want %d at the offered rate", requests, want)
	}
	if share := float64(count[classRead]) / float64(requests); share < 0.86 || share > 0.93 {
		t.Errorf("read share %.3f, want about %.3f", share, serveOffered.readShare)
	}
	if want := int(window / serveOffered.tickEvery); len(ticks) != want {
		t.Errorf("%d ticks, want %d", len(ticks), want)
	}
	for i := 1; i < len(ticks); i++ {
		if d := ticks[i] - ticks[i-1]; d != serveOffered.tickEvery {
			t.Errorf("ticks %v apart, want a fixed %v", d, serveOffered.tickEvery)
		}
	}
}
