package sharedfs

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestWatchExistingFiresImmediately(t *testing.T) {
	d := NewMem()
	d.WriteFile("a", 1)
	done, cancel := d.Watch("a")
	defer cancel()
	select {
	case <-done:
	default:
		t.Fatal("watch on existing file not signalled")
	}
}

func TestWatchFiresOnWrite(t *testing.T) {
	d := NewMem()
	done, cancel := d.Watch("late")
	defer cancel()
	select {
	case <-done:
		t.Fatal("watch fired before write")
	default:
	}
	d.WriteFile("late", 1)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("watch did not fire on write")
	}
}

func TestWatchCancelReleasesSubscription(t *testing.T) {
	d := NewMem()
	_, cancel := d.Watch("x")
	if len(d.watchers["x"]) != 1 {
		t.Fatalf("watchers = %d, want 1", len(d.watchers["x"]))
	}
	cancel()
	if len(d.watchers) != 0 {
		t.Fatalf("watchers map not cleaned: %v", d.watchers)
	}
	// cancel after the channel fired is a no-op
	done, cancel2 := d.Watch("y")
	d.WriteFile("y", 1)
	<-done
	cancel2()
}

func TestWatchMultipleSubscribersSameFile(t *testing.T) {
	d := NewMem()
	var chans []<-chan struct{}
	for i := 0; i < 4; i++ {
		ch, cancel := d.Watch("shared")
		defer cancel()
		chans = append(chans, ch)
	}
	d.WriteFile("shared", 1)
	for i, ch := range chans {
		select {
		case <-ch:
		case <-time.After(time.Second):
			t.Fatalf("subscriber %d never woke", i)
		}
	}
}

// TestWaitForUsesWatchPath asserts the event-driven path wakes promptly:
// with a huge poll interval passed in, only a push notification can
// return before the context deadline.
func TestWaitForUsesWatchPath(t *testing.T) {
	d := NewMem()
	go func() {
		time.Sleep(5 * time.Millisecond)
		d.WriteFile("pushed", 1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	missing, err := WaitFor(ctx, d, []string{"pushed"}, time.Hour)
	if err != nil || len(missing) != 0 {
		t.Fatalf("missing=%v err=%v", missing, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("watch path took %v; fell back to the poll interval?", elapsed)
	}
}

// TestWaitForWatchTimeoutReportsMissing covers the ctx-expiry branch of
// the watch path, including names later in the list that were already
// published.
func TestWaitForWatchTimeoutReportsMissing(t *testing.T) {
	d := NewMem()
	d.WriteFile("have", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	missing, err := WaitFor(ctx, d, []string{"z", "have", "a"}, time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !reflect.DeepEqual(missing, []string{"a", "z"}) {
		t.Fatalf("missing = %v, want [a z]", missing)
	}
	// No subscriptions may leak after WaitFor returns.
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.watchers) != 0 {
		t.Fatalf("leaked watchers: %v", d.watchers)
	}
}

// TestWaitForPollingFallback exercises the non-Watcher path via a
// DiskDrive (which has no push channel).
func TestWaitForPollingFallback(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Drive(d).(Watcher); ok {
		t.Fatal("DiskDrive unexpectedly implements Watcher; test needs updating")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		d.WriteFile("late", 1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Pathological poll interval must be clamped to maxPoll, so this
	// still returns well before the context deadline.
	missing, err := WaitFor(ctx, d, []string{"late"}, time.Hour)
	if err != nil || len(missing) != 0 {
		t.Fatalf("missing=%v err=%v", missing, err)
	}
}

// TestWaitForPollingCancellationMidWait covers cancelling the bounded
// polling path while it is blocked between probes: WaitFor must return
// promptly with the context error and the names still unpublished.
func TestWaitForPollingCancellationMidWait(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.WriteFile("present", 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	missing, err := WaitFor(ctx, d, []string{"gone-b", "present", "gone-a"}, 50*time.Millisecond)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must interrupt the sleep, not wait out the interval.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !reflect.DeepEqual(missing, []string{"gone-a", "gone-b"}) {
		t.Fatalf("missing = %v, want sorted [gone-a gone-b]", missing)
	}
}

// TestWaitForPollingImmediateReturn pins that the fallback path checks
// existence before its first sleep: files already on disk return without
// paying even one poll interval.
func TestWaitForPollingImmediateReturn(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.WriteFile("x", 1)
	d.WriteFile("y", 1)
	start := time.Now()
	missing, err := WaitFor(context.Background(), d, []string{"x", "y"}, time.Hour)
	if err != nil || len(missing) != 0 {
		t.Fatalf("missing=%v err=%v", missing, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("existing files took %v; slept before the first probe?", elapsed)
	}
}

func TestWatchConcurrentWritersAndWatchers(t *testing.T) {
	d := NewMem()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("f%02d", i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			done, cancel := d.Watch(name)
			defer cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Errorf("watcher of %s starved", name)
			}
		}()
		go func() {
			defer wg.Done()
			d.WriteFile(name, 1)
		}()
	}
	wg.Wait()
}
