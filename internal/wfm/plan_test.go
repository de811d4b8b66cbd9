package wfm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wfserverless/internal/recipes"
	"wfserverless/internal/sharedfs"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// invokeTask builds a single-task invocation plan and its body, and
// invokes task 0 — shim for the resilience tests, which exercise the
// retry/breaker machinery one ad-hoc task at a time.
func (m *Manager) invokeTask(ctx context.Context, task *wfformat.Task, rs *resilience) (*wfbench.Response, int, error) {
	p, err := newInvocationPlan([]*wfformat.Task{task}, nil)
	if err != nil {
		return nil, 0, err
	}
	if rs.st.bodies, err = p.encodeBodies(nil); err != nil {
		return nil, 0, err
	}
	return m.invoke(ctx, p, 0, rs, nil)
}

// allBodies is the body arena of a run that seeds nothing.
func allBodies(t testing.TB, p *invocationPlan) requestBodies {
	t.Helper()
	b, err := p.encodeBodies(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInvocationPlanBodies pins the payload arena: every task's body
// slice decodes back to exactly the WfBench request invokeOnce used to
// encode per attempt, an attempt's request carries it with the
// ContentLength that agrees, and GetBody replays the same bytes.
func TestInvocationPlanBodies(t *testing.T) {
	tasks := []*wfformat.Task{
		synthTask("alpha", "http://endpoint/task/alpha", nil),
		synthTask("beta", "http://endpoint/task/beta", []string{"out_alpha"}),
		synthTask("gamma", "http://other/task/gamma", []string{"out_alpha", "out_beta"}),
	}
	p, err := newInvocationPlan(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.len() != len(tasks) {
		t.Fatalf("plan len = %d, want %d", p.len(), len(tasks))
	}
	bodies := allBodies(t, p)
	for i, task := range tasks {
		id := int32(i)
		body := bodies.view(id)
		var got wfbench.Request
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: body does not decode: %v", task.Name, err)
		}
		arg := task.Command.Arguments[0]
		want := wfbench.Request{
			Name:       arg.Name,
			PercentCPU: arg.PercentCPU,
			CPUWork:    arg.CPUWork,
			Cores:      task.Cores,
			MemBytes:   arg.MemBytes,
			Out:        arg.Out,
			Inputs:     arg.Inputs,
			Workdir:    arg.Workdir,
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: body = %+v, want %+v", task.Name, got, want)
		}
		req, first := p.request(context.Background(), id, body)
		if req.ContentLength != int64(len(body)) || req.URL.String() != task.Command.APIURL {
			t.Fatalf("%s: POST %s of %d bytes, want %s of %d", task.Name, req.URL, req.ContentLength, task.Command.APIURL, len(body))
		}
		sent, err := io.ReadAll(req.Body)
		if err != nil || string(sent) != string(body) {
			t.Fatalf("%s: request body diverges (%v)", task.Name, err)
		}
		// The transport closes a body it is done with and may still ask for
		// a replay, until Do returns.
		req.Body.Close()
		rc, err := req.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		replay, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || string(replay) != string(body) {
			t.Fatalf("%s: GetBody replay diverges (%v)", task.Name, err)
		}
		first.done()
	}
}

// TestInvocationPlanBodiesMatchEncoder pins the bytes on the wire: the
// plan's append encoder renders every task of the seven recipes and of a
// service-shaped workflow exactly as the json.Encoder it replaced did.
func TestInvocationPlanBodiesMatchEncoder(t *testing.T) {
	wfs := []*wfformat.Workflow{serviceWorkflow(t, "svc", 5, "http://endpoint/invoke")}
	for _, recipe := range recipes.Names() {
		wfs = append(wfs, translated(t, recipe, 30, "http://endpoint"))
	}
	for _, w := range wfs {
		c, err := CompileRunnable(w)
		if err != nil {
			t.Fatal(err)
		}
		bodies := allBodies(t, c.plan)
		for id, task := range c.plan.tasks {
			arg := task.Command.Arguments[0]
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(&wfbench.Request{
				Name: arg.Name, PercentCPU: arg.PercentCPU, CPUWork: arg.CPUWork, Cores: task.Cores,
				MemBytes: arg.MemBytes, Out: arg.Out, Inputs: arg.Inputs, Workdir: arg.Workdir,
			}); err != nil {
				t.Fatal(err)
			}
			if got := bodies.view(int32(id)); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s/%s:\n got %s\nwant %s", w.Name, task.Name, got, want.Bytes())
			}
			if got, want := c.plan.inputs(int32(id)), task.InputFiles(); !slices.Equal(got, want) {
				t.Fatalf("%s/%s: plan inputs %v, task's %v", w.Name, task.Name, got, want)
			}
		}
	}
}

// TestInvocationPlanSharesParsedURLs pins URL deduplication: tasks
// translated against one ingress share a single parsed *url.URL.
func TestInvocationPlanSharesParsedURLs(t *testing.T) {
	tasks := []*wfformat.Task{
		synthTask("a", "http://ingress:8080/fn", nil),
		synthTask("b", "http://ingress:8080/fn", nil),
		synthTask("c", "http://elsewhere:9090/fn", nil),
		synthTask("d", "http://ingress:8080/fn", nil),
	}
	p, err := newInvocationPlan(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.urls[0] != p.urls[1] || p.urls[0] != p.urls[3] {
		t.Fatal("identical api_urls parsed twice")
	}
	if p.urls[0] == p.urls[2] {
		t.Fatal("distinct api_urls share a URL")
	}
}

// TestBodyArenaSizedFromItsBodies: the arena encodeBodies allocates is
// at most a tenth longer than the bodies it holds, and append never
// regrows it: encoding allocates the arena, the offsets and the one
// request the encoder's fallback makes escape, nothing more. On
// bench/'s fan-out the bodies are alike; on blast the last ones carry
// many times the first ones' names, and the first sixteen bodies
// understate the mean body by a quarter; a resumed run encodes every
// third task.
func TestBodyArenaSizedFromItsBodies(t *testing.T) {
	const url = "http://127.0.0.1:8080/wfbench"
	blast := translated(t, "blast", 200, url)
	var third []int32
	for id := int32(0); id < int32(blast.Len()); id++ {
		if id%3 != 0 {
			third = append(third, id)
		}
	}
	for _, tc := range []struct {
		name   string
		w      *wfformat.Workflow
		seeded []int32
	}{
		{"fanout-10k", benchFanout(t, 10_000, url), nil},
		{"blast-200", blast, nil},
		{"blast-200-resumed", blast, third},
	} {
		c, err := CompileRunnable(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		var b requestBodies
		allocs := testing.AllocsPerRun(3, func() {
			if b, err = c.plan.encodeBodies(tc.seeded); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes of bodies in an arena of %d, %.0f allocations", tc.name, len(b.buf), cap(b.buf), allocs)
		if cap(b.buf)*10 > len(b.buf)*11 {
			t.Errorf("%s: arena of %d bytes for %d bytes of bodies, more than 1.1 times", tc.name, cap(b.buf), len(b.buf))
		}
		if allocs > 3 {
			t.Errorf("%s: encoding the bodies allocated %.0f times, want 3: the arena regrew", tc.name, allocs)
		}
	}
}

// TestInvocationPlanRejectsBadTasks covers the plan-time guards that
// replaced invokeOnce's per-attempt checks.
func TestInvocationPlanRejectsBadTasks(t *testing.T) {
	noArgs := synthTask("x", "http://endpoint", nil)
	noArgs.Command.Arguments = nil
	if _, err := newInvocationPlan([]*wfformat.Task{noArgs}, nil); err == nil {
		t.Fatal("task without argument block accepted")
	}
	badURL := synthTask("y", "http://bad url with spaces", nil)
	if _, err := newInvocationPlan([]*wfformat.Task{badURL}, nil); err == nil {
		t.Fatal("unparseable api_url accepted")
	}
}

// TestArenaBodyDoubleClose pins the CAS discipline: a second Close
// (the HTTP client closes the body itself on some error paths) must
// not recycle the reader twice.
func TestArenaBodyDoubleClose(t *testing.T) {
	b := newArenaBody([]byte(`{"k":"v"}`), 1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaBodyReplaysUntilDone pins who holds a request's reader: the
// transport until it closes it, and the attempt until Do has returned —
// until then GetBody may be asked for, and must replay this request's
// bytes, not those of whichever attempt the pool gave the reader to next.
func TestArenaBodyReplaysUntilDone(t *testing.T) {
	first := newArenaBody([]byte("first"), 2)
	first.Close() // sent, or the connection died under it
	next := newArenaBody([]byte("next"), 2)
	if next == first {
		t.Fatal("a reader whose attempt is still in Client.Do was recycled at Close")
	}
	rc, err := first.replay()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(rc); string(got) != "first" {
		t.Fatalf("GetBody after Close replays %q", got)
	}
	rc.Close()
	first.done()
	next.Close()
	next.done()
}

// TestPrepareCompilesOnce: a Run builds one graph, once. The
// allocations of CompileRunnable — the whole front half of Run and
// Resume — are the validated compile's plus the plan's, with no room for
// a second compile (a structure-only Compile is the yardstick), and the
// validated compile itself costs less than two. The workflow is small
// enough that every map stays in one bucket, so the counts are exact.
func TestPrepareCompilesOnce(t *testing.T) {
	w := chainWorkflow(t, 4, "http://endpoint/wfbench")
	c, err := CompileRunnable(w)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(f func() error) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	prepare := allocs(func() error { _, err := CompileRunnable(w); return err })
	validated := allocs(func() error { _, _, _, err := w.ValidateCompile(); return err })
	compile := allocs(func() error { _, _, err := w.Compile(); return err })
	plan := allocs(func() error { _, err := newInvocationPlan(c.plan.tasks, nil); return err })
	if prepare >= validated+plan+compile {
		t.Fatalf("prepare = %v allocs: validated compile %v + plan %v leaves room for a second compile (%v)",
			prepare, validated, plan, compile)
	}
	if validated >= 2*compile {
		t.Fatalf("ValidateCompile = %v allocs, as much as two compiles (%v each)", validated, compile)
	}
	t.Logf("prepare %v = validated compile %v + plan %v; structure-only compile %v", prepare, validated, plan, compile)
}

// TestSeededTaskIsNeverPosted: a run encodes no body for a task it
// seeded, so a seeded task reaching a transport is a bug. On either
// transport the attempt fails, naming the task, and the endpoint sees no
// request for it — never an empty POST — while the task beside it runs.
func TestSeededTaskIsNeverPosted(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			drive := sharedfs.NewMem()
			stub := wfbench.NewStub(drive, 0)
			endpoint := wfbench.NewEndpoint(stub)
			var posts atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				posts.Add(1)
				endpoint.ServeHTTP(w, r)
			}))
			defer srv.Close()
			srv.URL += "/wfbench"
			p, err := newInvocationPlan([]*wfformat.Task{
				synthTask("leaf_a", srv.URL, nil),
				synthTask("leaf_b", srv.URL, nil),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := fastManager(t, drive, func(o *Options) { o.Batching = BatchOptions{Enabled: batched} })
			bodies, err := p.encodeBodies([]int32{1})
			if err != nil {
				t.Fatal(err)
			}
			rs := m.newResilience(context.Background(), p, time.Now(), &runState{bodies: bodies})
			defer rs.close()
			if _, _, err := m.invoke(context.Background(), p, 0, rs, nil); err != nil {
				t.Fatalf("leaf_a: %v", err)
			}
			_, attempts, err := m.invoke(context.Background(), p, 1, rs, nil)
			if err == nil || !strings.Contains(err.Error(), "leaf_b") || attempts != 1 {
				t.Fatalf("seeded leaf_b: %d attempt(s), err %v; want one failed attempt naming it", attempts, err)
			}
			if calls := stub.Counts(); posts.Load() != 1 || calls["leaf_a"] != 1 || len(calls) != 1 {
				t.Fatalf("endpoint saw %d POST(s) of %v, want one of leaf_a", posts.Load(), calls)
			}
		})
	}
}

// TestCompileRunnableRejectsNonFinite: a NaN CPU parameter fails the
// compile — and with it wfmd's admission, which calls CompileRunnable —
// instead of the run, when the request body would not encode.
func TestCompileRunnableRejectsNonFinite(t *testing.T) {
	for _, set := range []func(*wfformat.Argument){
		func(a *wfformat.Argument) { a.PercentCPU = math.NaN() },
		func(a *wfformat.Argument) { a.CPUWork = math.NaN() },
		func(a *wfformat.Argument) { a.CPUWork = math.Inf(1) },
	} {
		w := chainWorkflow(t, 2, "http://localhost/wfbench")
		set(&w.Tasks["c001"].Command.Arguments[0])
		if _, err := CompileRunnable(w); err == nil || !strings.Contains(err.Error(), `task "c001"`) {
			t.Fatalf("CompileRunnable: %v, want a problem naming c001", err)
		}
	}
}
