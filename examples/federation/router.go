package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"wfserverless/internal/serverless"
	"wfserverless/internal/wfbench"
)

// Policy selects how invocations are spread across member clusters.
type Policy string

// Policies.
const (
	// RoundRobin cycles through members.
	RoundRobin Policy = "round-robin"
	// LeastQueued picks the member with the shortest ingress queue,
	// spilling load toward idle clusters.
	LeastQueued Policy = "least-queued"
)

// Member is one federated cluster's platform.
type Member struct {
	Name     string
	Platform *serverless.Platform
}

// Router is the multi-cluster front end: a wfbench.Executor that hands
// each invocation to one member, so behind wfbench.NewEndpoint the
// workflow manager targets it exactly like a single platform. Members
// must share the drive, and the router does not manage their lifecycle.
type Router struct {
	policy  Policy
	members []Member
	rr      atomic.Int64
	counts  []atomic.Int64
}

// NewRouter returns a router over the (already started) members.
func NewRouter(policy Policy, members ...Member) (*Router, error) {
	if len(members) == 0 {
		return nil, errors.New("federation: need at least one member")
	}
	if policy != RoundRobin && policy != LeastQueued {
		return nil, fmt.Errorf("federation: unknown policy %q", policy)
	}
	seen := make(map[string]bool)
	for _, m := range members {
		if m.Name == "" || m.Platform == nil {
			return nil, errors.New("federation: member needs name and platform")
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("federation: duplicate member %q", m.Name)
		}
		seen[m.Name] = true
	}
	return &Router{policy: policy, members: members, counts: make([]atomic.Int64, len(members))}, nil
}

// Sent returns how many invocations each member received, in member
// order.
func (r *Router) Sent() []int64 {
	out := make([]int64, len(r.counts))
	for i := range r.counts {
		out[i] = r.counts[i].Load()
	}
	return out
}

// pick selects the member index for the next invocation.
func (r *Router) pick() int {
	if r.policy == RoundRobin {
		return int(r.rr.Add(1)-1) % len(r.members)
	}
	// Queue depth plus live pods' spare capacity would be ideal; queue
	// depth alone captures pressure.
	best, bestQ := 0, int(^uint(0)>>1)
	for i, m := range r.members {
		if q := m.Platform.QueueDepth(); q < bestQ {
			best, bestQ = i, q
		}
	}
	return best
}

// Invoke routes one function invocation to a member cluster.
func (r *Router) Invoke(ctx context.Context, service string, req *wfbench.Request) (*wfbench.Response, error) {
	i := r.pick()
	r.counts[i].Add(1)
	return r.members[i].Platform.Invoke(ctx, service, req)
}
