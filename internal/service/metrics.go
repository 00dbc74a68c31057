package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// Prometheus text exposition (version 0.0.4), hand-rolled so the server
// exports its counters without a metrics dependency. Families:
//
//	scheduled_batches_total{outcome="ok"|"failed"|"rejected"}
//	scheduled_rows_streamed_total
//	scheduled_retained_trees, scheduled_retained_tree_nodes
//	scheduled_tree_refs_total{result="resolved"|"unknown"}
//	scheduled_cache_hits_total, scheduled_cache_misses_total
//	scheduled_store_rows, scheduled_store_evictions_total
//	scheduled_store_commits_total, scheduled_store_commit_stalls_total
//	scheduled_tenant_accepted_jobs_total{tenant}
//	scheduled_tenant_rejected_jobs_total{tenant,reason="rate"|"queue"|"overload"|"full"}
//	scheduled_tenant_queued_jobs{tenant}
//	scheduled_shard_{resubmissions,quarantines,readmissions,load_sheds,
//	                 hedges,hedge_wins}_total
//	scheduled_shard_child_{chunks,rows,failures}_total{child},
//	scheduled_shard_child_{quarantined,rows_per_sec}{child}
//	scheduled_gossip_batches_total{outcome="enqueued"|"dropped"}
//	scheduled_gossip_rows_sent_total, scheduled_gossip_errors_total
//
// Cache, store, shard and gossip families appear only when the server was
// built with the matching ServerOptions source; tenant families appear per
// tenant the registry tracks, plus one aggregate series with an empty
// tenant label once the registry has dropped an idle tenant or turned a
// new one away (reason "full" appears on that series only). Zero-valued
// samples are still exported so a scrape can tell "counter at zero" from
// "family absent".

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates one exposition: HELP/TYPE headers are emitted
// once per family, samples in the order written.
type promWriter struct {
	sb     strings.Builder
	opened map[string]bool
}

func newPromWriter() *promWriter {
	return &promWriter{opened: map[string]bool{}}
}

// family emits the HELP/TYPE header once; kind is "counter" or "gauge".
func (p *promWriter) family(name, kind, help string) {
	if p.opened[name] {
		return
	}
	p.opened[name] = true
	fmt.Fprintf(&p.sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// sample emits one sample line. Labels alternate key, value; values are
// escaped per the exposition format. The numeric value prints as an
// integer when it is one (counters), %g otherwise (gauges like
// rows_per_sec).
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.sb.WriteString(name)
	if len(labels) > 0 {
		p.sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.sb.WriteByte(',')
			}
			// %q quotes and escapes backslash, double quote and newline —
			// exactly the label-value escaping the exposition format wants.
			fmt.Fprintf(&p.sb, "%s=%q", labels[i], labels[i+1])
		}
		p.sb.WriteByte('}')
	}
	if value == float64(int64(value)) {
		fmt.Fprintf(&p.sb, " %d\n", int64(value))
	} else {
		fmt.Fprintf(&p.sb, " %g\n", value)
	}
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the server's own batch/row/tree counters, the cache, row-store
// and shard counters it was configured with, and one sample set per
// tenant the registry tracks.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	p := newPromWriter()

	p.family("scheduled_batches_total", "counter", "Batch submissions by outcome (ok, failed, rejected).")
	p.sample("scheduled_batches_total", float64(s.batchesOK.Load()), "outcome", "ok")
	p.sample("scheduled_batches_total", float64(s.batchesFailed.Load()), "outcome", "failed")
	p.sample("scheduled_batches_total", float64(s.batchesRejected.Load()), "outcome", "rejected")
	p.family("scheduled_rows_streamed_total", "counter", "Rows streamed to batch clients.")
	p.sample("scheduled_rows_streamed_total", float64(s.rowsStreamed.Load()))
	trees, nodes := s.retained.size()
	p.family("scheduled_retained_trees", "gauge", "Trees retained from inline binary batch entries, across tenants.")
	p.sample("scheduled_retained_trees", float64(trees))
	p.family("scheduled_retained_tree_nodes", "gauge", "Nodes of the retained trees, bounded by the server's node budget.")
	p.sample("scheduled_retained_tree_nodes", float64(nodes))
	p.family("scheduled_tree_refs_total", "counter", "Binary batch tree references by result (resolved, unknown).")
	p.sample("scheduled_tree_refs_total", float64(s.refsResolved.Load()), "result", "resolved")
	p.sample("scheduled_tree_refs_total", float64(s.refsUnknown.Load()), "result", "unknown")

	if s.cache != nil {
		hits, misses := s.cache.Counters()
		p.family("scheduled_cache_hits_total", "counter", "Content-addressed cache hits.")
		p.sample("scheduled_cache_hits_total", float64(hits))
		p.family("scheduled_cache_misses_total", "counter", "Content-addressed cache misses.")
		p.sample("scheduled_cache_misses_total", float64(misses))
	}
	if s.rows != nil {
		p.family("scheduled_store_rows", "gauge", "Rows resident in the row store.")
		p.sample("scheduled_store_rows", float64(s.rows.Len()))
		p.family("scheduled_store_evictions_total", "counter", "Rows evicted by the store's MaxEntries bound.")
		p.sample("scheduled_store_evictions_total", float64(s.rows.Evictions()))
		st := s.rows.StoreStats()
		p.family("scheduled_store_commits_total", "counter", "Durable commits of the paged row store.")
		p.sample("scheduled_store_commits_total", float64(st.Commits))
		p.family("scheduled_store_commit_stalls_total", "counter", "Row store writes that waited for the previous commit to land.")
		p.sample("scheduled_store_commit_stalls_total", float64(st.CommitStalls))
	}

	for _, st := range s.tenants.Snapshot() {
		p.family("scheduled_tenant_accepted_jobs_total", "counter", "Jobs admitted per tenant.")
		p.sample("scheduled_tenant_accepted_jobs_total", float64(st.Accepted), "tenant", st.Name)
		p.family("scheduled_tenant_rejected_jobs_total", "counter", "Jobs rejected per tenant by reason (rate, queue, overload, full).")
		p.sample("scheduled_tenant_rejected_jobs_total", float64(st.RejectedRate), "tenant", st.Name, "reason", "rate")
		p.sample("scheduled_tenant_rejected_jobs_total", float64(st.RejectedQueue), "tenant", st.Name, "reason", "queue")
		p.sample("scheduled_tenant_rejected_jobs_total", float64(st.RejectedOverload), "tenant", st.Name, "reason", "overload")
		if st.Name == "" {
			p.sample("scheduled_tenant_rejected_jobs_total", float64(st.RejectedFull), "tenant", st.Name, "reason", "full")
		}
		p.family("scheduled_tenant_queued_jobs", "gauge", "Jobs admitted but not yet finished, per tenant.")
		p.sample("scheduled_tenant_queued_jobs", float64(st.Queued), "tenant", st.Name)
	}

	if s.shard != nil {
		c := s.shard.Counters()
		for _, m := range []struct {
			name string
			v    int64
			help string
		}{
			{"scheduled_shard_resubmissions_total", c.Resubmissions, "Chunk dispatches beyond the first attempt."},
			{"scheduled_shard_quarantines_total", c.Quarantines, "Child quarantine entries."},
			{"scheduled_shard_readmissions_total", c.Readmissions, "Child quarantine exits."},
			{"scheduled_shard_load_sheds_total", c.LoadSheds, "Batches shed by admission control."},
			{"scheduled_shard_hedges_total", c.Hedges, "Speculative re-dispatches of straggler chunks."},
			{"scheduled_shard_hedge_wins_total", c.HedgeWins, "Hedged dispatches that beat the straggler."},
		} {
			p.family(m.name, "counter", m.help)
			p.sample(m.name, float64(m.v))
		}
		stats := s.shard.ChildStats()
		sort.SliceStable(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
		for _, cs := range stats {
			p.family("scheduled_shard_child_chunks_total", "counter", "Chunks completed per child.")
			p.sample("scheduled_shard_child_chunks_total", float64(cs.Chunks), "child", cs.Name)
			p.family("scheduled_shard_child_rows_total", "counter", "Rows computed per child.")
			p.sample("scheduled_shard_child_rows_total", float64(cs.Rows), "child", cs.Name)
			p.family("scheduled_shard_child_failures_total", "counter", "Failed chunk dispatches per child.")
			p.sample("scheduled_shard_child_failures_total", float64(cs.Failures), "child", cs.Name)
			p.family("scheduled_shard_child_quarantined", "gauge", "Whether the child is benched right now (0 or 1).")
			quarantined := 0.0
			if cs.Quarantined {
				quarantined = 1
			}
			p.sample("scheduled_shard_child_quarantined", quarantined, "child", cs.Name)
			p.family("scheduled_shard_child_rows_per_sec", "gauge", "Windowed observed throughput per child.")
			p.sample("scheduled_shard_child_rows_per_sec", cs.RowsPerSec, "child", cs.Name)
		}
	}

	if s.gossip != nil {
		g := s.gossip.Stats()
		p.family("scheduled_gossip_batches_total", "counter", "Warm batches offered to peer queues by outcome (enqueued, dropped).")
		p.sample("scheduled_gossip_batches_total", float64(g.EnqueuedBatches), "outcome", "enqueued")
		p.sample("scheduled_gossip_batches_total", float64(g.DroppedBatches), "outcome", "dropped")
		p.family("scheduled_gossip_rows_sent_total", "counter", "Rows peers acknowledged storing from warm pushes.")
		p.sample("scheduled_gossip_rows_sent_total", float64(g.SentRows))
		p.family("scheduled_gossip_errors_total", "counter", "Failed warm pushes to peers.")
		p.sample("scheduled_gossip_errors_total", float64(g.Errors))
	}

	w.Header().Set("Content-Type", metricsContentType)
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, p.sb.String())
}
