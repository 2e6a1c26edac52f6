package proc

import "testing"

// The delta-cycle event wheel covers schedules up to wheelSize-1 cycles out;
// anything farther spills into the schedOverflow map. These tests drive a
// bare core's clock by hand and watch an IT's refill counter to pin down
// exactly when events fire at both boundaries.

// stepTo advances the core clock one cycle at a time to target, firing
// scheduled events, and returns the cycle at which the IT's refill count
// first changed (or -1).
func stepTo(c *Core, it *itTile, target int64) int64 {
	fired := int64(-1)
	before := it.Refills
	for c.cycle < target {
		c.cycle++
		c.runEvents(c.cycle)
		if fired < 0 && it.Refills != before {
			fired = c.cycle
		}
	}
	return fired
}

func TestScheduleWheelEdge(t *testing.T) {
	c := &Core{}
	it := newIT(c, 0)
	c.its[0] = it
	target := c.cycle + wheelSize - 1 // largest delta the ring can hold
	c.scheduleEv(target, schedEvent{kind: evRefill, seq: 0x1000})
	if c.schedOverflow != nil {
		t.Fatalf("delta %d spilled to the overflow map; wheel should hold it", wheelSize-1)
	}
	if fired := stepTo(c, it, target+4); fired != target {
		t.Fatalf("wheel-edge event fired at cycle %d, want %d", fired, target)
	}
	if it.Refills != 1 {
		t.Fatalf("event fired %d times, want once", it.Refills)
	}
}

func TestScheduleOverflow(t *testing.T) {
	c := &Core{}
	it := newIT(c, 0)
	c.its[0] = it
	// Delta wheelSize is the first schedule the ring cannot represent, and a
	// far-out schedule exercises the same path; both must land in the map.
	near := c.cycle + wheelSize
	far := c.cycle + 3*wheelSize + 7
	c.scheduleEv(near, schedEvent{kind: evRefill, seq: 0x2000})
	c.scheduleEv(far, schedEvent{kind: evRefill, seq: 0x3000})
	if len(c.schedOverflow) != 2 {
		t.Fatalf("overflow map holds %d cycles, want 2", len(c.schedOverflow))
	}
	if fired := stepTo(c, it, near); fired != near {
		t.Fatalf("overflow event fired at cycle %d, want %d", fired, near)
	}
	if fired := stepTo(c, it, far); fired != far {
		t.Fatalf("far overflow event fired at cycle %d, want %d", fired, far)
	}
	if it.Refills != 2 {
		t.Fatalf("events fired %d times, want 2", it.Refills)
	}
	if len(c.schedOverflow) != 0 {
		t.Fatalf("overflow map not drained: %d cycles left", len(c.schedOverflow))
	}
}

func TestSchedulePastClamps(t *testing.T) {
	c := &Core{cycle: 100}
	it := newIT(c, 0)
	c.its[0] = it
	// Scheduling at or before the current cycle must clamp to cycle+1, never
	// fire immediately or be lost.
	c.scheduleEv(c.cycle, schedEvent{kind: evRefill, seq: 0x4000})
	c.scheduleEv(c.cycle-50, schedEvent{kind: evRefill, seq: 0x5000})
	if it.Refills != 0 {
		t.Fatal("clamped event fired synchronously at schedule time")
	}
	if fired := stepTo(c, it, 101); fired != 101 {
		t.Fatalf("clamped events fired at cycle %d, want 101", fired)
	}
	if it.Refills != 2 {
		t.Fatalf("events fired %d times, want 2", it.Refills)
	}
}
