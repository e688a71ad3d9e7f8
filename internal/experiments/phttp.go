package experiments

import (
	"fmt"

	"lard/internal/cluster"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// PHTTP sweeps the paper's Section 5 open question empirically: under
// persistent connections (P-HTTP), how should the front end trade a
// connection's back-end affinity against LARD's locality? "The protocol
// allows the front end to either let one back end serve all of the
// requests on a persistent connection or to hand off a connection
// multiple times ... However, further research is needed to determine
// the appropriate policy."
//
// X axis: mean requests per connection (1 = single-request connections,
// where the policies coincide; every point on the sweep charges the
// same per-handoff cost model, so curves are comparable across X). For
// each of LARD and WRR, the three lard.ConnPolicy built-ins run the
// same workload:
//
//   - "pin" hands the whole connection to its first request's node:
//     cheapest (no switches), but requests 2..k land wherever request 1
//     went, so LARD's miss ratio climbs toward WRR's and throughput
//     falls with it as connections lengthen;
//   - "perreq" re-dispatches every request, paying the Table 2 handoff
//     CPU on every back-end switch: LARD keeps its HTTP/1.0 locality
//     (flat miss ratio) — the misses avoided cost milliseconds of disk,
//     the handoffs paid cost microseconds of CPU;
//   - "costaware" re-dispatches every request but switches only when
//     the modelled locality gain beats the switch cost: expected to
//     hold near per-request throughput and miss ratio with a fraction
//     of its re-handoffs, because moves for targets that are cold
//     everywhere (the trace's long tail) buy nothing;
//   - WRR is mode-insensitive: it has no locality to lose, so its
//     series track each other.
//
// The third table counts re-handoffs per dispatched request — the cost
// side of the trade-off that the throughput table's CPU charge hides.
func PHTTP(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	nodes := maxNodes(opt.Nodes, 8)
	reqsPerConn := []int{1, 2, 4, 8, 16}
	policies := []string{lard.ConnPin, lard.ConnPerRequest, lard.ConnCostAware}

	tput := &Table{
		ID: "phttp",
		Title: fmt.Sprintf("Throughput vs mean requests per persistent connection, %d nodes, Rice trace: pin vs per-request re-handoff vs cost-aware",
			nodes),
		XLabel: "reqs/conn",
		YLabel: "requests/sec",
	}
	miss := &Table{
		ID:     "phttp-miss",
		Title:  "Cache miss ratio for the same sweep (pinning scatters LARD's locality; re-handoff keeps it; cost-aware keeps most of it)",
		XLabel: "reqs/conn",
		YLabel: "miss ratio",
	}
	moves := &Table{
		ID:     "phttp-rehandoffs",
		Title:  "Re-handoffs per request for the same sweep (the switch cost cost-aware saves)",
		XLabel: "reqs/conn",
		YLabel: "rehandoffs/request",
	}

	for _, kind := range []string{"lard", "wrr"} {
		for _, policy := range policies {
			label := cluster.Label(kind) + " " + policy
			var xs, ty, my, ry []float64
			for _, k := range reqsPerConn {
				cfg := cluster.DefaultConfig(kind, nodes)
				cfg.ReqsPerConn = k
				cfg.ConnPolicy = policy
				res, err := simulate(opt, cfg, tr)
				if err != nil {
					return nil, err
				}
				xs = append(xs, float64(k))
				ty = append(ty, res.Throughput)
				my = append(my, res.MissRatio)
				ry = append(ry, float64(res.Rehandoffs)/float64(max(res.Requests, 1)))
			}
			tput.Series = append(tput.Series, Series{Label: label, X: xs, Y: ty})
			miss.Series = append(miss.Series, Series{Label: label, X: xs, Y: my})
			moves.Series = append(moves.Series, Series{Label: label, X: xs, Y: ry})
		}
	}
	return []*Table{tput, miss, moves}, nil
}
