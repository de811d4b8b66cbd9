package core

import (
	"context"
	"strings"
	"testing"

	"wfserverless/internal/metrics"
	"wfserverless/internal/wfformat"
)

func knativeConfig() PlatformConfig {
	return PlatformConfig{
		Kind:                KindKnative,
		Workers:             10,
		CPURequestPerWorker: 0.25,
		MemRequestPerWorker: 64 << 20,
		ColdStart:           1,
		AutoscalePeriod:     1,
		StableWindow:        3,
		PodOverheadMem:      50 << 20,
		WorkerOverheadMem:   16 << 20,
	}
}

// localConfig is eight always-on containers of two cores each: a
// service held at fixed scale.
func localConfig() PlatformConfig {
	return PlatformConfig{
		Kind:                KindLocal,
		Workers:             10,
		MinScale:            8,
		MaxScale:            8,
		CPURequestPerWorker: 0.2,
		PodOverheadMem:      50 << 20,
		WorkerOverheadMem:   16 << 20,
	}
}

func testSession(t *testing.T, cfg SessionConfig) *Session {
	t.Helper()
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 0.002
	}
	if cfg.Manager.PhaseDelay == 0 {
		cfg.Manager.PhaseDelay = 0.5
	}
	if cfg.Manager.InputWait == 0 {
		cfg.Manager.InputWait = 5
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(SessionConfig{TimeScale: -1, Platform: knativeConfig()}); err == nil {
		t.Fatal("negative TimeScale accepted")
	}
	if _, err := NewSession(SessionConfig{Platform: PlatformConfig{Kind: "mystery", Workers: 1}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRunRecipeKnative(t *testing.T) {
	s := testSession(t, SessionConfig{Platform: knativeConfig()})
	res, err := s.RunRecipe(context.Background(), "blast", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if s.Platform().Requests() != 20 {
		t.Fatal("knative platform did not serve the workflow")
	}
	if s.URL() == "" {
		t.Fatal("no URL")
	}
}

func TestRunRecipeLocal(t *testing.T) {
	s := testSession(t, SessionConfig{Platform: localConfig()})
	res, err := s.RunRecipe(context.Background(), "cycles", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	p := s.Platform()
	if p.Requests() != 20 {
		t.Fatalf("local containers served %d, want 20", p.Requests())
	}
	if p.Pods() != 8 || p.ColdStarts() != 0 || s.Cluster().Snapshot().ReservedCores != 16 {
		t.Fatalf("pods %d, cold starts %d, %+v: want 8 always-on containers, 16 cores",
			p.Pods(), p.ColdStarts(), s.Cluster().Snapshot())
	}
}

func TestSessionReusableAcrossRuns(t *testing.T) {
	s := testSession(t, SessionConfig{Platform: knativeConfig()})
	for i := int64(0); i < 3; i++ {
		if _, err := s.RunRecipe(context.Background(), "seismology", 10, i); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := s.Platform().Requests(); got != 30 {
		t.Fatalf("requests = %d, want 30", got)
	}
}

func TestSamplingLifecycle(t *testing.T) {
	s := testSession(t, SessionConfig{Platform: knativeConfig()})
	if err := s.StartSampling(); err != nil {
		t.Fatal(err)
	}
	if err := s.StartSampling(); err == nil {
		t.Fatal("double StartSampling accepted")
	}
	if _, err := s.RunRecipe(context.Background(), "blast", 15, 1); err != nil {
		t.Fatal(err)
	}
	s.StopSampling()
	if s.Sampler().SeriesFor(metrics.MetricPower).Len() < 2 {
		t.Fatal("no power samples recorded")
	}
	if s.Sampler().MeanOf(metrics.MetricPower) <= 0 {
		t.Fatal("zero mean power")
	}
}

func TestRunHybridSplitsTraffic(t *testing.T) {
	sec := localConfig()
	s := testSession(t, SessionConfig{
		Platform:  knativeConfig(),
		Secondary: &sec,
	})
	if s.SecondaryURL() == "" {
		t.Fatal("no secondary URL")
	}
	w, err := s.GenerateWorkflow("blast", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Dense blastall phase on serverless, everything else local — the
	// paper's proposed per-step mapping.
	res, err := s.RunHybrid(context.Background(), w, func(task *wfformat.Task) string {
		if task.Category == "blastall" {
			return KindKnative
		}
		return KindLocal
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	if got := s.Platform().Requests(); got != 17 {
		t.Fatalf("knative served %d, want 17 blastall", got)
	}
	if got := s.Secondary().Requests(); got != 3 {
		t.Fatalf("local served %d, want 3", got)
	}
}

func TestRunHybridRequiresSecondary(t *testing.T) {
	s := testSession(t, SessionConfig{Platform: knativeConfig()})
	w, _ := s.GenerateWorkflow("blast", 10, 1)
	if _, err := s.RunHybrid(context.Background(), w, func(*wfformat.Task) string { return KindKnative }); err == nil {
		t.Fatal("hybrid without secondary accepted")
	}
}

func TestRunHybridBadPick(t *testing.T) {
	sec := localConfig()
	s := testSession(t, SessionConfig{Platform: knativeConfig(), Secondary: &sec})
	w, _ := s.GenerateWorkflow("blast", 10, 1)
	_, err := s.RunHybrid(context.Background(), w, func(*wfformat.Task) string { return "mars" })
	if err == nil || !strings.Contains(err.Error(), "mars") {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseIdempotentAndBlocksRuns(t *testing.T) {
	s := testSession(t, SessionConfig{Platform: localConfig()})
	s.Close()
	s.Close()
	if _, err := s.RunRecipe(context.Background(), "blast", 10, 1); err == nil {
		t.Fatal("run on closed session accepted")
	}
}

func TestTranslateSetsURLs(t *testing.T) {
	s := testSession(t, SessionConfig{Platform: knativeConfig()})
	w, _ := s.GenerateWorkflow("bwa", 10, 1)
	tw, err := s.Translate(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tw.TaskNames() {
		if !strings.HasPrefix(tw.Tasks[name].Command.APIURL, s.URL()) {
			t.Fatalf("task %s URL = %q", name, tw.Tasks[name].Command.APIURL)
		}
	}
}
