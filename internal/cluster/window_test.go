package cluster

import (
	"math"
	"sync"
	"testing"
	"time"
)

// scripted replaces c's time source with a clock the test advances.
func scripted(c *Cluster) (advance func(seconds float64)) {
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	return func(s float64) { now = now.Add(time.Duration(s * float64(time.Second))) }
}

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// fields lists a Level's quantities, named by fieldNames.
func fields(l Level) []float64 {
	return []float64{l.BusyCores, l.ReservedCores, l.ReservedMem, l.CPUCores, l.UsedMem, l.PowerWatts, l.Reservations}
}

var fieldNames = []string{"BusyCores", "ReservedCores", "ReservedMem", "CPUCores", "UsedMem", "PowerWatts", "Reservations"}

func nearLevel(t *testing.T, what string, got, want Level) {
	t.Helper()
	w := fields(want)
	for i, g := range fields(got) {
		near(t, what+"."+fieldNames[i], g, w[i])
	}
}

func twoNodes() (*Cluster, *Node, *Node) {
	a := NewNode(NodeSpec{Name: "a", Cores: 8, MemBytes: 1000, IdleWatts: 100, MaxWatts: 300, CStateWattsPerReservedCore: 1})
	b := NewNode(NodeSpec{Name: "b", Cores: 4, MemBytes: 500, IdleWatts: 50, MaxWatts: 150, CStateWattsPerReservedCore: 0.5})
	return New(a, b), a, b
}

// TestWindowExact drives a 2-node cluster through a scripted sequence on
// a scripted clock and checks the window's means, maxima and energy
// against the integrals worked out by hand, segment by segment (the
// level held over each segment is in the comments: busy, reserved
// cores, cpu, reserved mem, used mem, power, reservations).
func TestWindowExact(t *testing.T) {
	c, a, b := twoNodes()
	advance := scripted(c)

	ra, err := a.Reserve(2, 100) // held when the window opens
	if err != nil {
		t.Fatal(err)
	}
	w := c.Measure()
	// [0,1): 0, 2, 2, 100, 0, a 100+1·2 + b 50 = 152, 1
	advance(1)
	// [1,3): 3, 2, 3, 100, 0, 102 + 50+100·3/4 = 227, 1. Per node,
	// max(busy, reserved) sums to 2+3 = 5; the cluster's is max(3, 2).
	b.AddBusy(3)
	advance(2)
	// [3,4): 3, 2, 3, 100, 600, 227, 1. The spike to 10,600 B is set
	// and undone at one instant, so it is never held and is no maximum.
	a.AddMem(10000)
	a.AddMem(-10000)
	a.AddMem(400)
	b.AddMem(200)
	advance(1)
	// [4,6): 3, 6, 6, 400, 600, 102 + 125+0.5·(4-3) = 227.5, 2
	rb, err := b.Reserve(4, 300)
	if err != nil {
		t.Fatal(err)
	}
	advance(2)
	// [6,7): 11 (a clamps 10 at 8), 6, 11, 400, 600, 300 + 125.5 = 425.5, 2
	a.AddBusy(10)
	advance(1)
	// [7,9): 11, 4, 11, 300, 600, 425.5, 1
	ra.Release()
	advance(2)
	// [9,10): 0, 0, 0, 0, 0, 150, 0
	a.AddBusy(-10)
	b.AddBusy(-3)
	a.AddMem(-400)
	b.AddMem(-200)
	rb.Release()
	advance(1)
	got := w.Close()

	nearLevel(t, "Mean", got.Mean, Level{
		BusyCores:     (0*1 + 3*2 + 3*1 + 3*2 + 11*1 + 11*2 + 0*1) / 10.0,
		ReservedCores: (2*1 + 2*2 + 2*1 + 6*2 + 6*1 + 4*2 + 0*1) / 10.0,
		CPUCores:      (2*1 + 3*2 + 3*1 + 6*2 + 11*1 + 11*2 + 0*1) / 10.0,
		ReservedMem:   (100*1 + 100*2 + 100*1 + 400*2 + 400*1 + 300*2 + 0*1) / 10.0,
		UsedMem:       (0*1 + 0*2 + 600*1 + 600*2 + 600*1 + 600*2 + 0*1) / 10.0,
		PowerWatts:    (152*1 + 227*2 + 227*1 + 227.5*2 + 425.5*1 + 425.5*2 + 150*1) / 10.0,
		Reservations:  (1*1 + 1*2 + 1*1 + 2*2 + 2*1 + 1*2 + 0*1) / 10.0,
	})
	nearLevel(t, "Max", got.Max, Level{
		BusyCores: 11, ReservedCores: 6, CPUCores: 11, ReservedMem: 400,
		UsedMem: 600, PowerWatts: 425.5, Reservations: 2,
	})
	near(t, "EnergyJ", got.EnergyJ, 152*1+227*2+227*1+227.5*2+425.5*1+425.5*2+150*1)
	if again := w.Close(); again != got {
		t.Errorf("second Close = %+v, want %+v", again, got)
	}

	// A window of no length reads the level at its instant.
	r, _ := b.Reserve(1, 10)
	zero := c.Measure().Close()
	idle := Level{ReservedCores: 1, CPUCores: 1, ReservedMem: 10, PowerWatts: 100 + 50 + 0.5, Reservations: 1}
	nearLevel(t, "zero-length Mean", zero.Mean, idle)
	nearLevel(t, "zero-length Max", zero.Max, idle)
	near(t, "zero-length EnergyJ", zero.EnergyJ, 0)
	r.Release()

	// The mutators allocate nothing, with a window open and without; a
	// Reserve's one allocation is the handle it returns. AllocsPerRun
	// calls each 101 times, so Release undoes every Reserve.
	for _, open := range []bool{false, true} {
		var w *Window
		if open {
			w = c.Measure()
		}
		held := make([]*Reservation, 0, 101)
		for _, m := range []struct {
			name   string
			allocs float64
			f      func()
		}{
			{"AddBusy", 0, func() { a.AddBusy(1); advance(0.5); a.AddBusy(-1) }},
			{"AddMem", 0, func() { b.AddMem(7); advance(0.5); b.AddMem(-7) }},
			{"Reserve", 1, func() { r, _ := a.Reserve(0.05, 1); held = append(held, r); advance(0.5) }},
			{"Release", 0, func() { held[len(held)-1].Release(); held = held[:len(held)-1]; advance(0.5) }},
		} {
			if got := testing.AllocsPerRun(100, m.f); got != m.allocs {
				t.Errorf("window open %v: %s allocates %v, want %v", open, m.name, got, m.allocs)
			}
		}
		if w != nil {
			w.Close()
		}
	}
}

// TestWindowRace: goroutines reserve, add busy cores and memory and
// release on both nodes while a window is open. Every mean and maximum
// stays within capacity, and the cluster ends where it began.
func TestWindowRace(t *testing.T) {
	a := NewNode(NodeSpec{Name: "a", Cores: 16, MemBytes: 1 << 30, IdleWatts: 100, MaxWatts: 300, CStateWattsPerReservedCore: 1})
	b := NewNode(NodeSpec{Name: "b", Cores: 16, MemBytes: 1 << 30, IdleWatts: 100, MaxWatts: 300, CStateWattsPerReservedCore: 1})
	c := New(a, b)
	const workers = 16
	w := c.Measure()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r, err := c.Place(1.5, 64<<20)
				if err != nil {
					continue
				}
				n := r.Node()
				n.AddBusy(2.5) // oversubscribes at times: clamped
				n.AddMem(32 << 20)
				n.AddMem(-32 << 20)
				n.AddBusy(-2.5)
				r.Release()
			}
		}()
	}
	wg.Wait()
	got := w.Close()

	capacity := fields(Level{
		BusyCores: 32, ReservedCores: 32, ReservedMem: 2 << 30, CPUCores: 32,
		UsedMem: workers * 32 << 20, PowerWatts: 2 * (300 + 16), Reservations: workers,
	})
	for what, l := range map[string]Level{"Mean": got.Mean, "Max": got.Max} {
		for i, v := range fields(l) {
			if v < 0 || v > capacity[i] {
				t.Errorf("%s.%s = %v, outside [0, %v]", what, fieldNames[i], v, capacity[i])
			}
		}
	}
	if got.Mean.PowerWatts < 200 {
		t.Errorf("Mean.PowerWatts = %v, below the idle 200", got.Mean.PowerWatts)
	}
	c.mu.Lock()
	end := c.level()
	c.mu.Unlock()
	if end != (Level{PowerWatts: 200}) {
		t.Errorf("state after every release = %+v, want idle", end)
	}
}
