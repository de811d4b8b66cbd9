package cluster

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func testNode() *Node {
	return NewNode(NodeSpec{
		Name: "n0", Cores: 8, MemBytes: 1 << 30, Packages: 2,
		IdleWatts: 100, MaxWatts: 300,
	})
}

func TestReserveRelease(t *testing.T) {
	n := testNode()
	r, err := n.Reserve(4, 512<<20)
	if err != nil {
		t.Fatal(err)
	}
	u := n.Snapshot()
	if u.ReservedCores != 4 || u.ReservedMem != 512<<20 {
		t.Fatalf("after reserve: %+v", u)
	}
	r.Release()
	u = n.Snapshot()
	if u.ReservedCores != 0 || u.ReservedMem != 0 {
		t.Fatalf("after release: %+v", u)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	n := testNode()
	r, _ := n.Reserve(2, 0)
	r.Release()
	r.Release()
	if u := n.Snapshot(); u.ReservedCores != 0 {
		t.Fatalf("double release corrupted accounting: %+v", u)
	}
}

func TestReserveOverCapacity(t *testing.T) {
	n := testNode()
	if _, err := n.Reserve(9, 0); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if _, err := n.Reserve(1, 2<<30); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("mem over capacity: err = %v", err)
	}
	// exact fit is allowed
	if _, err := n.Reserve(8, 1<<30); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
}

func TestReserveNegative(t *testing.T) {
	n := testNode()
	if _, err := n.Reserve(-1, 0); err == nil {
		t.Fatal("negative cores accepted")
	}
	if _, err := n.Reserve(0, -1); err == nil {
		t.Fatal("negative mem accepted")
	}
}

func TestBusyAndMemAccounting(t *testing.T) {
	n := testNode()
	n.AddBusy(2)
	n.AddMem(100)
	u := n.Snapshot()
	if u.BusyCores != 2 || u.UsedMem != 100 {
		t.Fatalf("usage = %+v", u)
	}
	n.AddBusy(-2)
	n.AddMem(-100)
	u = n.Snapshot()
	if u.BusyCores != 0 || u.UsedMem != 0 {
		t.Fatalf("after release: %+v", u)
	}
}

func TestPowerModel(t *testing.T) {
	n := testNode()
	if p := n.Snapshot().PowerWatts; p != 100 {
		t.Fatalf("idle power = %v, want 100", p)
	}
	n.AddBusy(4) // 50% util
	if p := n.Snapshot().PowerWatts; math.Abs(p-200) > 1e-9 {
		t.Fatalf("50%% power = %v, want 200", p)
	}
	n.AddBusy(-4)
	n.AddBusy(100) // oversubscribed: clamp at capacity
	u := n.Snapshot()
	if u.BusyCores != 8 {
		t.Fatalf("BusyCores = %v, want clamped 8", u.BusyCores)
	}
	if math.Abs(u.PowerWatts-300) > 1e-9 {
		t.Fatalf("clamped power = %v, want 300", u.PowerWatts)
	}
}

func TestPackagePowers(t *testing.T) {
	n := testNode()
	pp := n.PackagePowers()
	if len(pp) != 2 {
		t.Fatalf("packages = %d, want 2", len(pp))
	}
	if math.Abs(pp[0]+pp[1]-100) > 1e-9 {
		t.Fatalf("package sum = %v, want 100", pp[0]+pp[1])
	}
}

func TestClusterPlaceFirstFit(t *testing.T) {
	a := NewNode(NodeSpec{Name: "a", Cores: 2, MemBytes: 100, IdleWatts: 1, MaxWatts: 2})
	b := NewNode(NodeSpec{Name: "b", Cores: 8, MemBytes: 100, IdleWatts: 1, MaxWatts: 2})
	c := New(a, b)
	r1, err := c.Place(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Node().Spec().Name != "a" {
		t.Fatalf("placed on %s, want a", r1.Node().Spec().Name)
	}
	// a is now full; next goes to b
	r2, err := c.Place(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Node().Spec().Name != "b" {
		t.Fatalf("placed on %s, want b", r2.Node().Spec().Name)
	}
}

func TestClusterPlaceExhausted(t *testing.T) {
	c := New(NewNode(NodeSpec{Name: "a", Cores: 1, MemBytes: 1}))
	if _, err := c.Place(2, 0); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v", err)
	}
	empty := New()
	if _, err := empty.Place(1, 0); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("empty cluster err = %v", err)
	}
}

func TestClusterSnapshotSums(t *testing.T) {
	c := PaperTestbed()
	if got := c.TotalCores(); got != 96 {
		t.Fatalf("TotalCores = %v, want 96", got)
	}
	const gb = int64(1) << 30
	if got := c.TotalMem(); got != 448*gb {
		t.Fatalf("TotalMem = %d GB, want 448", got/gb)
	}
	c.Nodes()[0].AddBusy(10)
	c.Nodes()[1].AddBusy(5)
	u := c.Snapshot()
	if u.BusyCores != 15 {
		t.Fatalf("BusyCores = %v", u.BusyCores)
	}
	if u.PowerWatts <= 240 { // must exceed combined idle
		t.Fatalf("PowerWatts = %v, want > 240", u.PowerWatts)
	}
	if u.CapCores != 96 {
		t.Fatalf("CapCores = %v", u.CapCores)
	}
}

func TestConcurrentReservations(t *testing.T) {
	n := NewNode(NodeSpec{Name: "n", Cores: 1000, MemBytes: 1 << 40})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if r, err := n.Reserve(1, 1<<10); err == nil {
					r.Release()
				}
				n.AddBusy(0.5)
				n.AddBusy(-0.5)
			}
		}()
	}
	wg.Wait()
	u := n.Snapshot()
	if u.ReservedCores != 0 || u.BusyCores != 0 {
		t.Fatalf("leaked accounting: %+v", u)
	}
}

func TestQuickReserveNeverExceedsCapacity(t *testing.T) {
	f := func(reqs []uint8) bool {
		n := NewNode(NodeSpec{Name: "n", Cores: 16, MemBytes: 1 << 20})
		var live []*Reservation
		for _, q := range reqs {
			cores := float64(q % 8)
			mem := int64(q) << 10
			r, err := n.Reserve(cores, mem)
			if err == nil {
				live = append(live, r)
			}
			u := n.Snapshot()
			if u.ReservedCores > 16 || u.ReservedMem > 1<<20 {
				return false
			}
			// randomly release half the time
			if q%2 == 0 && len(live) > 0 {
				live[0].Release()
				live = live[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPackages(t *testing.T) {
	n := NewNode(NodeSpec{Name: "x", Cores: 1, MemBytes: 1})
	if got := len(n.PackagePowers()); got != 1 {
		t.Fatalf("default packages = %d, want 1", got)
	}
}

func TestCStatePenalty(t *testing.T) {
	n := NewNode(NodeSpec{Name: "p", Cores: 10, MemBytes: 1 << 30,
		IdleWatts: 100, MaxWatts: 200, CStateWattsPerReservedCore: 1})
	r, _ := n.Reserve(6, 0)
	defer r.Release()
	// 6 reserved, 0 busy -> +6W over idle
	if p := n.Snapshot().PowerWatts; math.Abs(p-106) > 1e-9 {
		t.Fatalf("power = %v, want 106", p)
	}
	n.AddBusy(4) // 4 busy: dyn 40W, idle-reserved 2 -> +2W
	if p := n.Snapshot().PowerWatts; math.Abs(p-142) > 1e-9 {
		t.Fatalf("power = %v, want 142", p)
	}
	n.AddBusy(4) // busy 8 > reserved 6: no penalty
	if p := n.Snapshot().PowerWatts; math.Abs(p-180) > 1e-9 {
		t.Fatalf("power = %v, want 180", p)
	}
}
