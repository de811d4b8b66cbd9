package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck is the benchmark checking its own repeatability the way
// its acceptance does: per workload two sets, A and B, of k runs of the
// current tree, run i of either set on seed+i, the sets alternating so
// that a drift of the host lands on both. Per metric it prints each
// set's quartiles and spread (IQR/median) and how much worse B's median
// is than A's, against the metric's bound. It returns non-zero when a
// run fails, a spread exceeds its bound (setup_s's too, which the
// acceptance lets off), or B is worse than A by more than the bound.
func runSelfcheck(k int, cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	breaches := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for j := 0; j < 2; j++ {
				set := (i + j) % 2 // A first on even runs, B first on odd
				out, gauges, err := childRun(exe, name, cfg.seed+int64(i), cfg)
				if err != nil {
					fmt.Printf("%s run %d of set %c: %v\n", name, i, 'A'+set, err)
					breaches++
					continue
				}
				fmt.Printf("%s set %c seed %d:", name, 'A'+set, cfg.seed+int64(i))
				for _, d := range endToEnd {
					v := out.Metrics[d.Name].Value
					sets[set][d.Name] = append(sets[set][d.Name], v)
					fmt.Printf(" %s=%.4g", d.Name, v)
				}
				fmt.Printf(" %s\n", gauges)
			}
		}
		fmt.Printf("\n%s: 2 sets of %d runs, seeds %d..%d, %g s each\n", name, k, cfg.seed, cfg.seed+int64(k)-1, cfg.seconds)
		fmt.Printf("%-18s %-5s %12s %12s %12s %8s   %12s %8s   %8s %7s\n",
			"metric", "unit", "A q1", "A median", "A q3", "A iqr%", "B median", "B iqr%", "B worse%", "bound%")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			q1, med, q3 := quartiles(a)
			_, medB, _ := quartiles(b)
			worse := 100 * (medB - med) / med
			if d.Better == "higher" {
				worse = -worse
			}
			bound := 100 * d.Bound
			verdict := ""
			if worse > bound {
				verdict = "  BREACH: sets differ"
				breaches++
			}
			if spread := max(spreadPct(a), spreadPct(b)); spread > bound {
				verdict += "  BREACH: spread"
				breaches++
			} else if spread > bound/3 {
				verdict += "  (spread above a third of the bound)"
			}
			fmt.Printf("%-18s %-5s %12.4f %12.4f %12.4f %8.2f   %12.4f %8.2f   %8.2f %7.1f%s\n",
				d.Name, d.Unit, q1, med, q3, spreadPct(a), medB, spreadPct(b), worse, bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("\nselfcheck: %d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("\nselfcheck: every metric within its bound")
	return 0
}

// childRun runs one workload once in a process of its own and parses
// the outcome from the last line it prints. gauges are the host gauges
// the run printed before it (noise and speed), for the per-run line.
func childRun(exe, workload string, seed int64, cfg config) (out *outcome, gauges string, err error) {
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	out = &outcome{}
	if jerr := json.Unmarshal(lines[len(lines)-1], out); jerr != nil {
		if err != nil {
			return nil, "", err
		}
		return nil, "", fmt.Errorf("no outcome on the last line: %w", jerr)
	}
	if !out.Correct || out.Failed > 0 {
		return nil, "", fmt.Errorf("run incorrect: %d of %d operations failed", out.Failed, out.Attempted)
	}
	for _, l := range lines {
		if f := bytes.Fields(l); len(f) > 1 && bytes.HasPrefix(f[0], []byte("proc.")) {
			gauges += fmt.Sprintf(" %s=%s", f[0], f[1])
		}
	}
	return out, gauges, err
}
