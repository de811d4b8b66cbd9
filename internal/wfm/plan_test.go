package wfm

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"testing"

	"wfserverless/internal/recipes"
	"wfserverless/internal/wfbench"
	"wfserverless/internal/wfformat"
)

// invokeTask builds a single-task invocation plan and invokes task 0 —
// shim for the resilience tests, which exercise the retry/breaker
// machinery one ad-hoc task at a time.
func (m *Manager) invokeTask(ctx context.Context, task *wfformat.Task, rs *resilience) (*wfbench.Response, int, error) {
	p, err := newInvocationPlan([]*wfformat.Task{task}, nil)
	if err != nil {
		return nil, 0, err
	}
	return m.invoke(ctx, p, 0, rs, nil)
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
	for i, task := range tasks {
		id := int32(i)
		body := p.body(id)
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
		req, first := p.request(context.Background(), id)
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
		for id, task := range c.plan.tasks {
			arg := task.Command.Arguments[0]
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(&wfbench.Request{
				Name: arg.Name, PercentCPU: arg.PercentCPU, CPUWork: arg.CPUWork, Cores: task.Cores,
				MemBytes: arg.MemBytes, Out: arg.Out, Inputs: arg.Inputs, Workdir: arg.Workdir,
			}); err != nil {
				t.Fatal(err)
			}
			if got := c.plan.body(int32(id)); !bytes.Equal(got, want.Bytes()) {
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
	}
	p, err := newInvocationPlan(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.urls[0] != p.urls[1] {
		t.Fatal("identical api_urls parsed twice")
	}
	if p.urls[0] == p.urls[2] {
		t.Fatal("distinct api_urls share a URL")
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
