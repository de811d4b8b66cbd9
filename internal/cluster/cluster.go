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
package cluster

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInsufficient is returned when a reservation cannot fit on a node.
var ErrInsufficient = errors.New("cluster: insufficient resources")

// NodeSpec describes one machine.
type NodeSpec struct {
	Name     string
	Cores    float64 // schedulable cores
	MemBytes int64   // schedulable memory
	Packages int     // CPU sockets, for per-package RAPL readings
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
// concurrent use.
type Node struct {
	spec NodeSpec

	mu            sync.Mutex
	reservedCores float64
	reservedMem   int64
	busyCores     float64
	usedMem       int64
}

// NewNode returns a node for the given spec.
func NewNode(spec NodeSpec) *Node {
	if spec.Packages <= 0 {
		spec.Packages = 1
	}
	return &Node{spec: spec}
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
		r.node.mu.Lock()
		r.node.reservedCores -= r.cores
		r.node.reservedMem -= r.mem
		r.node.mu.Unlock()
	})
}

// Reserve grants cores and mem if they fit within the node's remaining
// capacity; otherwise it returns ErrInsufficient. This is where the
// paper's "memory and CPU limits being reached" failure mode surfaces.
func (n *Node) Reserve(cores float64, mem int64) (*Reservation, error) {
	if cores < 0 || mem < 0 {
		return nil, fmt.Errorf("cluster: negative reservation (%v cores, %d bytes)", cores, mem)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.reservedCores+cores > n.spec.Cores || n.reservedMem+mem > n.spec.MemBytes {
		return nil, fmt.Errorf("%w: node %s: want %.1f cores/%d B, free %.1f cores/%d B",
			ErrInsufficient, n.spec.Name, cores, mem,
			n.spec.Cores-n.reservedCores, n.spec.MemBytes-n.reservedMem)
	}
	n.reservedCores += cores
	n.reservedMem += mem
	return &Reservation{node: n, cores: cores, mem: mem}, nil
}

// AddBusy adds cores of live CPU work; whoever registered them
// unregisters them with the negative. Oversubscription is recorded
// as-is; Snapshot clamps utilization at capacity when deriving power.
func (n *Node) AddBusy(cores float64) {
	n.mu.Lock()
	n.busyCores += cores
	n.mu.Unlock()
}

// AddMem adds bytes of live resident memory, negative to unregister.
func (n *Node) AddMem(bytes int64) {
	n.mu.Lock()
	n.usedMem += bytes
	n.mu.Unlock()
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
	n.mu.Lock()
	busy := n.busyCores
	u := Usage{
		ReservedCores: n.reservedCores,
		ReservedMem:   n.reservedMem,
		UsedMem:       n.usedMem,
		CapCores:      n.spec.Cores,
		CapMem:        n.spec.MemBytes,
	}
	n.mu.Unlock()
	if busy > n.spec.Cores {
		busy = n.spec.Cores
	}
	if busy < 0 {
		busy = 0
	}
	u.BusyCores = busy
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

// PackagePowers splits the node's modeled power across its CPU packages,
// mirroring the per-package denki.rapl.rate[...] endpoints the paper
// samples with pmdumptext.
func (n *Node) PackagePowers() []float64 {
	u := n.Snapshot()
	out := make([]float64, n.spec.Packages)
	per := u.PowerWatts / float64(n.spec.Packages)
	for i := range out {
		out[i] = per
	}
	return out
}

// Cluster is a set of nodes with first-fit placement.
type Cluster struct {
	nodes []*Node
}

// New returns a cluster of the given nodes.
func New(nodes ...*Node) *Cluster {
	return &Cluster{nodes: nodes}
}

// PaperTestbed reproduces the AD appendix hardware: a master node with
// 2× EPYC 7443 (48 cores) and 256 GB, and a worker node with the same CPUs
// and 192 GB. Idle/max watts follow typical dual-socket EPYC figures; the
// shape of the power results depends only on idle power being a large
// fraction of peak, which holds for any server.
func PaperTestbed() *Cluster {
	const gb = int64(1) << 30
	master := NewNode(NodeSpec{
		Name: "master", Cores: 48, MemBytes: 256 * gb, Packages: 2,
		IdleWatts: 120, MaxWatts: 520, CStateWattsPerReservedCore: 0.15,
	})
	worker := NewNode(NodeSpec{
		Name: "worker", Cores: 48, MemBytes: 192 * gb, Packages: 2,
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
	var total Usage
	for _, n := range c.nodes {
		u := n.Snapshot()
		total.ReservedCores += u.ReservedCores
		total.ReservedMem += u.ReservedMem
		total.BusyCores += u.BusyCores
		total.UsedMem += u.UsedMem
		total.PowerWatts += u.PowerWatts
		total.CapCores += u.CapCores
		total.CapMem += u.CapMem
	}
	return total
}

// TotalCores returns the cluster's schedulable cores.
func (c *Cluster) TotalCores() float64 {
	var t float64
	for _, n := range c.nodes {
		t += n.spec.Cores
	}
	return t
}

// TotalMem returns the cluster's schedulable memory.
func (c *Cluster) TotalMem() int64 {
	var t int64
	for _, n := range c.nodes {
		t += n.spec.MemBytes
	}
	return t
}
