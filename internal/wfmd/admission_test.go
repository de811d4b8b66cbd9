package wfmd

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testDispatcher(slots int, tenants ...TenantConfig) *dispatcher {
	return newDispatcher(Config{
		Tenants:       tenants,
		DefaultTenant: TenantConfig{Weight: 1, MaxConcurrentRuns: 4},
		QueueCapacity: 64,
		MaxActiveRuns: 64,
		TaskSlots:     slots,
	})
}

// TestFairShareRatio drives two saturating tenants with weights 3:1
// through the task gate and checks grant counts converge to the
// weights.
func TestFairShareRatio(t *testing.T) {
	d := testDispatcher(4,
		TenantConfig{Name: "a", Weight: 3},
		TenantConfig{Name: "b", Weight: 1},
	)
	const perTenant = 400
	var wg sync.WaitGroup
	worker := func(tenant string) {
		defer wg.Done()
		g := d.gate(tenant, PriorityNormal)
		for i := 0; i < perTenant; i++ {
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
			g.Release()
		}
	}
	// 8 workers per tenant so both tenants always have waiters: every
	// grant is contested and the weights fully bind.
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go worker("a")
		go worker("b")
	}
	wg.Wait()
	stats := d.stats()
	var a, b TenantStats
	for _, s := range stats {
		switch s.Tenant {
		case "a":
			a = s
		case "b":
			b = s
		}
	}
	if a.TasksDispatched != 8*perTenant || b.TasksDispatched != 8*perTenant {
		t.Fatalf("dispatched a=%d b=%d, want %d each", a.TasksDispatched, b.TasksDispatched, 8*perTenant)
	}
	if a.ContestedGrants == 0 || b.ContestedGrants == 0 {
		t.Fatalf("no contention measured: a=%d b=%d", a.ContestedGrants, b.ContestedGrants)
	}
	// Compare the contested-grant ratio over the window where both
	// tenants were demanding. Both submit identical totals, so the
	// faster tenant finishes first; the contested counters isolate the
	// fair-share regime.
	ratio := float64(a.ContestedGrants) / float64(b.ContestedGrants)
	if ratio < 3*0.85 || ratio > 3*1.15 {
		t.Fatalf("contested grant ratio %.2f (a=%d b=%d), want 3.0 ±15%%", ratio, a.ContestedGrants, b.ContestedGrants)
	}
	if a.TaskHighwater > 4 || b.TaskHighwater > 4 {
		t.Fatalf("task highwater a=%d b=%d exceeded %d slots", a.TaskHighwater, b.TaskHighwater, 4)
	}
}

// TestPerTenantTaskCap pins MaxInFlightTasks: a tenant never holds
// more slots than its cap even when the global pool has room.
func TestPerTenantTaskCap(t *testing.T) {
	d := testDispatcher(8, TenantConfig{Name: "capped", Weight: 1, MaxInFlightTasks: 2})
	g := d.gate("capped", PriorityNormal)
	var wg sync.WaitGroup
	var inflight, peak atomic.Int32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			g.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("per-tenant in-flight peak %d, cap is 2", p)
	}
}

// TestPriorityOrderWithinTenant checks a tenant's high-priority
// waiters are granted before its normal ones.
func TestPriorityOrderWithinTenant(t *testing.T) {
	d := testDispatcher(1)
	hold := d.gate("t", PriorityNormal)
	if err := hold.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With the only slot held, queue one normal then one high waiter.
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	enqueue := func(prio Priority, label string) {
		wg.Add(1)
		g := d.gate("t", prio)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			g.Release()
		}()
	}
	enqueue(PriorityNormal, "normal")
	time.Sleep(20 * time.Millisecond) // ensure FIFO position
	enqueue(PriorityHigh, "high")
	time.Sleep(20 * time.Millisecond)
	hold.Release()
	wg.Wait()
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("grant order %v, want high first", order)
	}
}

// TestAcquireCancellation verifies a cancelled Acquire neither leaks a
// slot nor wedges later grants.
func TestAcquireCancellation(t *testing.T) {
	d := testDispatcher(1)
	g := d.gate("t", PriorityNormal)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		g2 := d.gate("t", PriorityNormal)
		errc <- g2.Acquire(ctx)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled Acquire returned nil")
	}
	g.Release()
	// The slot must be free for the next acquirer.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	g3 := d.gate("t", PriorityNormal)
	if err := g3.Acquire(ctx2); err != nil {
		t.Fatalf("slot leaked after cancellation: %v", err)
	}
	g3.Release()
}

// TestAcquireRecyclesOnlyGrantedWaiters churns the gate with acquirers
// that give up at random: waiters are recycled, and a cancelled one may
// still sit in its tenant's queue. Reusing one of those would grant a
// slot to the wrong acquirer or to nobody, so: never more holders than
// slots, every acquirer accounted for, every slot back at the end — and
// an acquirer allocates no waiter and no channel of its own (what is
// left is the tenant's queue, whose array an idle tenant regrows).
func TestAcquireRecyclesOnlyGrantedWaiters(t *testing.T) {
	const slots = 2
	d := testDispatcher(slots, TenantConfig{Name: "a", Weight: 3}, TenantConfig{Name: "b", Weight: 1})
	var held, granted, gaveUp atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := d.gate([]string{"a", "b"}[w%2], Priority(w%numPriorities))
			for i := 0; i < 300; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration((w*7+i)%5)*20*time.Microsecond)
				err := g.Acquire(ctx)
				cancel()
				if err != nil {
					gaveUp.Add(1)
					continue
				}
				if n := held.Add(1); n > slots {
					t.Errorf("%d holders of %d slots", n, slots)
				}
				granted.Add(1)
				time.Sleep(20 * time.Microsecond)
				held.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if granted.Load() == 0 || gaveUp.Load() == 0 {
		t.Fatalf("%d grants, %d cancellations: the churn exercised one side only", granted.Load(), gaveUp.Load())
	}
	d.mu.Lock()
	free, inflight, waiting := d.freeSlots, 0, 0
	for _, ts := range d.tenants {
		inflight += ts.inflight
		waiting += ts.waiting
	}
	d.mu.Unlock()
	if free != slots || inflight != 0 || waiting != 0 {
		t.Fatalf("after the churn: %d free of %d slots, %d in flight, %d waiting", free, slots, inflight, waiting)
	}
	g := d.gate("a", PriorityNormal)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n := testing.AllocsPerRun(200, func() {
		if err := g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		g.Release()
	}); n > 1 {
		t.Fatalf("an uncontended Acquire/Release allocates %v times, want at most the queue slot", n)
	}
}

// TestRunQuota pins the run-admission side: per-tenant concurrent-run
// quota holds, excess runs queue, and queue overflow rejects.
func TestRunQuota(t *testing.T) {
	d := newDispatcher(Config{
		Tenants:       []TenantConfig{{Name: "t", Weight: 1, MaxConcurrentRuns: 2}},
		DefaultTenant: TenantConfig{},
		QueueCapacity: 3,
		MaxActiveRuns: 64,
		TaskSlots:     8,
	})
	var mu sync.Mutex
	var running []*run
	d.launch = func(r *run) {
		mu.Lock()
		running = append(running, r)
		mu.Unlock()
	}
	submit := func(id string) error {
		if err := d.reserve("t"); err != nil {
			return err
		}
		d.enqueue(&run{id: id, tenant: "t", priority: PriorityNormal})
		return nil
	}
	for i, id := range []string{"r1", "r2", "r3", "r4", "r5"} {
		if err := submit(id); err != nil {
			t.Fatalf("submission %d rejected early: %v", i, err)
		}
	}
	// Quota 2 running, 3 queued: the queue is now full.
	if err := submit("r6"); err != ErrQueueFull {
		t.Fatalf("6th submission: got %v, want ErrQueueFull", err)
	}
	mu.Lock()
	n := len(running)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("%d runs launched, quota is 2", n)
	}
	// Finishing one run starts exactly one more.
	d.runDone("t")
	mu.Lock()
	n = len(running)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("%d runs launched after one finished, want 3", n)
	}
	st := d.stats()[0]
	if st.RunHighwater != 2 {
		t.Fatalf("run highwater %d, want 2", st.RunHighwater)
	}
	if st.RunsRejected != 1 {
		t.Fatalf("rejected %d, want 1", st.RunsRejected)
	}
}
