// Package cluster models the compute substrate the paper ran on: a small
// cluster of bare-metal nodes (2× AMD EPYC 7443 per node) shared by the
// serverless platform and the local-container baseline.
//
// A Node tracks two orthogonal quantities over time:
//
//   - reservations — cores and memory *provisioned* to pods or containers
//     (Kubernetes requests / docker --cpus), whether or not they are doing
//     anything. Fine-grained serverless reserves only while pods exist;
//     local containers reserve for the whole run. The time-averaged
//     reservation is the "CPU usage"/"memory usage" the evaluation plots.
//   - live usage — cores actually busy and bytes actually resident,
//     registered by running WfBench invocations. Busy cores drive the
//     RAPL-style power model, which is why the paper finds power roughly
//     equal across paradigms (total work is paradigm-independent and idle
//     power dominates).
//
// That state changes only in Reserve, Release, AddBusy and AddMem, so it
// is piecewise constant. A Window (Cluster.Measure) integrates it exactly
// over those change points, where the paper averages PCP's 1 Hz samples.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrInsufficient is returned when a reservation cannot fit on a node.
var ErrInsufficient = errors.New("cluster: insufficient resources")

// NodeSpec describes one machine.
type NodeSpec struct {
	Name     string
	Cores    float64 // schedulable cores
	MemBytes int64   // schedulable memory
	// Power model: watts drawn idle and at full utilization.
	IdleWatts float64
	MaxWatts  float64
	// CStateWattsPerReservedCore is a small penalty per reserved but
	// idle core: pinned cores cannot enter deep sleep states. It is
	// what makes the paper's "NoCR slightly improves power efficiency"
	// observation emerge from the model.
	CStateWattsPerReservedCore float64
}

// Node is a machine with reservation and usage accounting. Safe for
// concurrent use: its state is guarded by its cluster's lock.
type Node struct {
	spec NodeSpec
	c    *Cluster

	reservedCores float64
	reservedMem   int64
	busyCores     float64
	usedMem       int64
	reservations  int
}

// NewNode returns a node for the given spec, a cluster of its own until
// New makes it part of one.
func NewNode(spec NodeSpec) *Node {
	n := &Node{spec: spec}
	New(n)
	return n
}

// Spec returns the node's description.
func (n *Node) Spec() NodeSpec { return n.spec }

// Reservation is a grant of cores and memory on a node. Release returns
// the resources; releasing twice is a no-op.
type Reservation struct {
	node  *Node
	cores float64
	mem   int64
	once  sync.Once
}

// Cores returns the reserved core count.
func (r *Reservation) Cores() float64 { return r.cores }

// MemBytes returns the reserved memory.
func (r *Reservation) MemBytes() int64 { return r.mem }

// Node returns the node holding the reservation.
func (r *Reservation) Node() *Node { return r.node }

// Release returns the reserved resources to the node.
func (r *Reservation) Release() {
	r.once.Do(func() {
		n := r.node
		n.c.mu.Lock()
		n.reservedCores -= r.cores
		n.reservedMem -= r.mem
		n.reservations--
		n.c.changed()
		n.c.mu.Unlock()
	})
}

// Reserve grants cores and mem if they fit within the node's remaining
// capacity; otherwise it returns ErrInsufficient. This is where the
// paper's "memory and CPU limits being reached" failure mode surfaces.
func (n *Node) Reserve(cores float64, mem int64) (*Reservation, error) {
	if cores < 0 || mem < 0 {
		return nil, fmt.Errorf("cluster: negative reservation (%v cores, %d bytes)", cores, mem)
	}
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	if n.reservedCores+cores > n.spec.Cores || n.reservedMem+mem > n.spec.MemBytes {
		return nil, fmt.Errorf("%w: node %s: want %.1f cores/%d B, free %.1f cores/%d B",
			ErrInsufficient, n.spec.Name, cores, mem,
			n.spec.Cores-n.reservedCores, n.spec.MemBytes-n.reservedMem)
	}
	n.reservedCores += cores
	n.reservedMem += mem
	n.reservations++
	n.c.changed()
	return &Reservation{node: n, cores: cores, mem: mem}, nil
}

// AddBusy adds cores of live CPU work; whoever registered them
// unregisters them with the negative. Oversubscription is recorded
// as-is; Snapshot clamps utilization at capacity when deriving power.
func (n *Node) AddBusy(cores float64) {
	n.c.mu.Lock()
	n.busyCores += cores
	n.c.changed()
	n.c.mu.Unlock()
}

// AddMem adds bytes of live resident memory, negative to unregister.
func (n *Node) AddMem(bytes int64) {
	n.c.mu.Lock()
	n.usedMem += bytes
	n.c.changed()
	n.c.mu.Unlock()
}

// Usage is an instantaneous reading of one node (or a cluster total).
type Usage struct {
	ReservedCores float64
	ReservedMem   int64
	BusyCores     float64 // clamped at capacity
	UsedMem       int64
	PowerWatts    float64
	CapCores      float64
	CapMem        int64
}

// Snapshot returns the node's instantaneous usage and modeled power.
func (n *Node) Snapshot() Usage {
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	return n.usage()
}

// usage reads the node's state; the caller holds the cluster's lock.
func (n *Node) usage() Usage {
	busy := min(max(n.busyCores, 0), n.spec.Cores)
	u := Usage{
		ReservedCores: n.reservedCores,
		ReservedMem:   n.reservedMem,
		BusyCores:     busy,
		UsedMem:       n.usedMem,
		CapCores:      n.spec.Cores,
		CapMem:        n.spec.MemBytes,
	}
	util := 0.0
	if n.spec.Cores > 0 {
		util = busy / n.spec.Cores
	}
	u.PowerWatts = n.spec.IdleWatts + (n.spec.MaxWatts-n.spec.IdleWatts)*util
	if idleReserved := u.ReservedCores - busy; idleReserved > 0 {
		u.PowerWatts += n.spec.CStateWattsPerReservedCore * idleReserved
	}
	return u
}

// Cluster is a set of nodes with first-fit placement. One lock guards
// the state of all of its nodes, so every change point sees the
// cluster's totals.
type Cluster struct {
	nodes []*Node

	mu  sync.Mutex
	now func() time.Time // the windows' time source
	win *Window          // the open window, nil if none
}

// New returns a cluster of the given nodes. A node belongs to the last
// cluster made of it.
func New(nodes ...*Node) *Cluster {
	c := &Cluster{nodes: nodes, now: time.Now}
	for _, n := range nodes {
		n.c = c
	}
	return c
}

// PaperTestbed reproduces the AD appendix hardware: a master node with
// 2× EPYC 7443 (48 cores) and 256 GB, and a worker node with the same CPUs
// and 192 GB. Idle/max watts follow typical dual-socket EPYC figures; the
// shape of the power results depends only on idle power being a large
// fraction of peak, which holds for any server.
func PaperTestbed() *Cluster {
	const gb = int64(1) << 30
	master := NewNode(NodeSpec{
		Name: "master", Cores: 48, MemBytes: 256 * gb,
		IdleWatts: 120, MaxWatts: 520, CStateWattsPerReservedCore: 0.15,
	})
	worker := NewNode(NodeSpec{
		Name: "worker", Cores: 48, MemBytes: 192 * gb,
		IdleWatts: 120, MaxWatts: 520, CStateWattsPerReservedCore: 0.15,
	})
	return New(master, worker)
}

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Place reserves cores/mem on the first node with room, in node order —
// the behaviour of a simple scheduler on a two-node testbed.
func (c *Cluster) Place(cores float64, mem int64) (*Reservation, error) {
	var lastErr error
	for _, n := range c.nodes {
		r, err := n.Reserve(cores, mem)
		if err == nil {
			return r, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: cluster has no nodes", ErrInsufficient)
	}
	return nil, lastErr
}

// Snapshot sums instantaneous usage over all nodes.
func (c *Cluster) Snapshot() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total()
}

// total sums the nodes' usage; the caller holds c.mu.
func (c *Cluster) total() Usage {
	var t Usage
	for _, n := range c.nodes {
		u := n.usage()
		t.ReservedCores += u.ReservedCores
		t.ReservedMem += u.ReservedMem
		t.BusyCores += u.BusyCores
		t.UsedMem += u.UsedMem
		t.PowerWatts += u.PowerWatts
		t.CapCores += u.CapCores
		t.CapMem += u.CapMem
	}
	return t
}

// Level is the cluster's state between two change points: the
// quantities a Window integrates.
type Level struct {
	BusyCores     float64 // Σ per-node busy cores, each clamped at capacity
	ReservedCores float64
	ReservedMem   float64 // bytes
	// CPUCores is the figures' "CPU usage": max(BusyCores,
	// ReservedCores) over the whole cluster, not a per-node sum.
	CPUCores     float64
	UsedMem      float64 // resident bytes
	PowerWatts   float64 // Σ per-node modeled power
	Reservations float64 // live reservations; every pod holds one
}

// level reads the cluster's Level; the caller holds c.mu.
func (c *Cluster) level() Level {
	t := c.total()
	var live int
	for _, n := range c.nodes {
		live += n.reservations
	}
	return Level{
		BusyCores:     t.BusyCores,
		ReservedCores: t.ReservedCores,
		ReservedMem:   float64(t.ReservedMem),
		CPUCores:      max(t.BusyCores, t.ReservedCores),
		UsedMem:       float64(t.UsedMem),
		PowerWatts:    t.PowerWatts,
		Reservations:  float64(live),
	}
}

// addScaled adds k·b to l, field by field.
func (l *Level) addScaled(b Level, k float64) {
	l.BusyCores += k * b.BusyCores
	l.ReservedCores += k * b.ReservedCores
	l.ReservedMem += k * b.ReservedMem
	l.CPUCores += k * b.CPUCores
	l.UsedMem += k * b.UsedMem
	l.PowerWatts += k * b.PowerWatts
	l.Reservations += k * b.Reservations
}

// raise lifts each field of l to at least b's.
func (l *Level) raise(b Level) {
	l.BusyCores = max(l.BusyCores, b.BusyCores)
	l.ReservedCores = max(l.ReservedCores, b.ReservedCores)
	l.ReservedMem = max(l.ReservedMem, b.ReservedMem)
	l.CPUCores = max(l.CPUCores, b.CPUCores)
	l.UsedMem = max(l.UsedMem, b.UsedMem)
	l.PowerWatts = max(l.PowerWatts, b.PowerWatts)
	l.Reservations = max(l.Reservations, b.Reservations)
}

// Account is what a window measured over [open, close]: the time means
// and maxima of the cluster's Level, and the energy it drew.
type Account struct {
	Mean, Max Level
	EnergyJ   float64 // ∫ PowerWatts dt over wall seconds
}

// Window integrates the cluster's Level over time, from Measure to
// Close. The maxima are over levels held for a positive time: one set
// and replaced at the same instant is never in effect.
type Window struct {
	c           *Cluster
	start, last time.Time
	cur         Level // held since last
	sum, max    Level // ∫ level dt in seconds, and the maxima
	acct        Account
}

// Measure opens a window on the cluster. Until it is closed, every
// change point integrates the level held since the previous one. One
// window may be open on a cluster at a time.
func (c *Cluster) Measure() *Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.win != nil {
		panic("cluster: Measure with a window already open")
	}
	now := c.now()
	c.win = &Window{c: c, start: now, last: now, cur: c.level()}
	return c.win
}

// changed closes the level the open window has held since the previous
// change point and opens the one just set. With no window open it reads
// no clock. The caller holds c.mu.
func (c *Cluster) changed() {
	if c.win != nil {
		c.win.step(c.now(), c.level())
	}
}

// step integrates the level held until now and holds next from now on.
func (w *Window) step(now time.Time, next Level) {
	if dt := now.Sub(w.last).Seconds(); dt > 0 {
		w.sum.addScaled(w.cur, dt)
		w.max.raise(w.cur)
	}
	w.cur, w.last = next, now
}

// Close ends the window and returns its account; closing it again
// returns the same account.
func (w *Window) Close() Account {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.win != w {
		return w.acct
	}
	c.win = nil
	now := c.now()
	w.step(now, w.cur)
	w.acct = Account{Max: w.max, EnergyJ: w.sum.PowerWatts}
	if span := now.Sub(w.start).Seconds(); span > 0 {
		w.acct.Mean.addScaled(w.sum, 1/span)
	} else {
		w.acct.Mean, w.acct.Max = w.cur, w.cur
	}
	return w.acct
}
