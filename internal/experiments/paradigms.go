// Package experiments reproduces the paper's evaluation: the
// computational paradigms of Table II, the 140-experiment design of
// Table I, and the measurement campaigns behind Figures 3-7. Each
// experiment provisions a fresh paper-testbed cluster, deploys WfBench
// under one paradigm (Knative-like serverless or bare-metal local
// containers), executes a generated workflow through the serverless
// workflow manager, and integrates CPU, memory and power exactly over
// the run (the paper samples them at 1 Hz with Performance Co-Pilot).
package experiments

import (
	"fmt"
)

// Kind selects the computational platform.
type Kind string

// Platform kinds.
const (
	KindKnative Kind = "knative"
	KindLocal   Kind = "local"
)

// Paradigm identifies one Table II computational paradigm.
type Paradigm string

// The Table II paradigms.
const (
	Kn1wPM        Paradigm = "Kn1wPM"
	Kn1wNoPM      Paradigm = "Kn1wNoPM"
	Kn10wNoPM     Paradigm = "Kn10wNoPM"
	Kn1000wPM     Paradigm = "Kn1000wPM"
	LC1wPM        Paradigm = "LC1wPM"
	LC1wNoPM      Paradigm = "LC1wNoPM"
	LC10wNoPM     Paradigm = "LC10wNoPM"
	LC10wNoPMNoCR Paradigm = "LC10wNoPMNoCR"
	LC1000wPM     Paradigm = "LC1000wPM"
)

// Spec describes a paradigm's configuration knobs.
type Spec struct {
	ID      Paradigm
	Kind    Kind
	Workers int
	// PM: persistent memory over the functions (--vm-keep).
	PM bool
	// CR: CPU/memory requirements declared up front. Always true for
	// Knative; LC10wNoPMNoCR turns it off.
	CR bool
	// Coarse: one process reserving the whole machine, no cold start,
	// no scaling (the paper's coarse-grained scenario).
	Coarse      bool
	Description string
}

// All lists the Table II paradigms in the paper's order.
func All() []Spec {
	return []Spec{
		{Kn1wPM, KindKnative, 1, true, true, false,
			"Knative, 1 worker per pod, persistent memory"},
		{Kn1wNoPM, KindKnative, 1, false, true, false,
			"Knative, 1 worker per pod, no persistent memory"},
		{Kn10wNoPM, KindKnative, 10, false, true, false,
			"Knative, 10 workers per pod, no persistent memory"},
		{Kn1000wPM, KindKnative, 1000, true, true, true,
			"Knative, 1000 workers per pod, persistent memory (coarse-grained)"},
		{LC1wPM, KindLocal, 1, true, true, false,
			"Local containers, 1 worker per container, persistent memory"},
		{LC1wNoPM, KindLocal, 1, false, true, false,
			"Local containers, 1 worker per container, no persistent memory"},
		{LC10wNoPM, KindLocal, 10, false, true, false,
			"Local containers, 10 workers per container, no persistent memory"},
		{LC10wNoPMNoCR, KindLocal, 10, false, false, false,
			"Local containers, 10 workers per container, no persistent memory, no CPU requirement"},
		{LC1000wPM, KindLocal, 1000, true, true, true,
			"Local containers, 1000 workers per container, persistent memory (coarse-grained)"},
	}
}

// ByID returns the paradigm spec for id.
func ByID(id Paradigm) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown paradigm %q", id)
}

// FineGrained returns the non-coarse paradigms (7 of them, the "7
// computational paradigms" of Table I's fine-grained block).
func FineGrained() []Spec {
	var out []Spec
	for _, s := range All() {
		if !s.Coarse {
			out = append(out, s)
		}
	}
	return out
}

// CoarseGrained returns the two coarse paradigms.
func CoarseGrained() []Spec {
	var out []Spec
	for _, s := range All() {
		if s.Coarse {
			out = append(out, s)
		}
	}
	return out
}

// DesignEntry is one row of the Table I experiment matrix.
type DesignEntry struct {
	Granularity string // "fine" or "coarse"
	Paradigm    Paradigm
	Recipe      string
	SizeClass   string // "small", "large", "huge"
}

// Design enumerates the paper's 140-experiment matrix: 98 fine-grained
// (7 paradigms x 7 workflows x 2 sizes) and 42 coarse-grained
// (2 paradigms x 7 workflows x 3 sizes).
func Design(recipes []string) []DesignEntry {
	var out []DesignEntry
	for _, p := range FineGrained() {
		for _, r := range recipes {
			for _, size := range []string{"small", "large"} {
				out = append(out, DesignEntry{"fine", p.ID, r, size})
			}
		}
	}
	for _, p := range CoarseGrained() {
		for _, r := range recipes {
			for _, size := range []string{"small", "large", "huge"} {
				out = append(out, DesignEntry{"coarse", p.ID, r, size})
			}
		}
	}
	return out
}
