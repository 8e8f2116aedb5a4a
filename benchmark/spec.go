package main

import (
	"encoding/json"
	"strings"
)

// runSeconds is the timed window the driver asks for, as recorded in
// BENCHMARK.json.
const runSeconds = 15

// metricSpec names a metric. bound is the share of the parent commit's
// median by which an end-to-end metric may get worse; per-layer metrics have
// none.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEndSpec lists what a user of the store sees. Every workload reports
// every one of them about its measured op: a query on the scans, a Put or a
// Get on the object workloads.
var endToEndSpec = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"net_bytes_per_op", "B", "lower", 0.05},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.05},
}

// perLayerSpec lists the per-layer metrics of a traced run, in the order of
// the README's table. A metric a workload does not exercise reads 0 there.
var perLayerSpec = buildPerLayerSpec()

func buildPerLayerSpec() []metricSpec {
	s := []metricSpec{
		{name: "store.coord_self_ms_per_op", unit: "ms", better: "lower"},
		{name: "store.query.meta_ms", unit: "ms", better: "lower"},
		{name: "store.query.filter_ms", unit: "ms", better: "lower"},
		{name: "store.query.project_ms", unit: "ms", better: "lower"},
		{name: "store.query.group_ms", unit: "ms", better: "lower"},
		{name: "store.put.layout_ms", unit: "ms", better: "lower"},
		{name: "store.put.place_stripe_ms", unit: "ms", better: "lower"},
		{name: "store.put.replicate_meta_ms", unit: "ms", better: "lower"},
		{name: "store.put.commit_blocks_ms", unit: "ms", better: "lower"},
		{name: "store.pushdown_on_share", unit: "ratio", better: "higher"},
		{name: "store.pruned_row_groups_per_query", unit: "count", better: "higher"},
		{name: "store.batch_rpcs_per_query", unit: "count", better: "lower"},
		{name: "store.allocs_per_op", unit: "count", better: "lower"},
		{name: "store.peak_pipeline_bytes", unit: "B", better: "lower"},
	}
	for _, t := range allTemplateNames() {
		s = append(s, metricSpec{name: "store.q." + t + "_p50_ms", unit: "ms", better: "lower"})
	}
	s = append(s,
		metricSpec{name: "tcpnet.calls_per_op", unit: "count", better: "lower"},
		metricSpec{name: "tcpnet.req_bytes_per_op", unit: "B", better: "lower"},
		metricSpec{name: "tcpnet.resp_bytes_per_op", unit: "B", better: "lower"},
		metricSpec{name: "tcpnet.call_ms_per_op", unit: "ms", better: "lower"},
		metricSpec{name: "tcpnet.wire_ms_per_op", unit: "ms", better: "lower"},
		metricSpec{name: "tcpnet.ping_rtt_us", unit: "us", better: "lower"},
		metricSpec{name: "tcpnet.bulk_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "cluster.handle_ms_per_op", unit: "ms", better: "lower"},
	)
	for _, k := range replayKinds {
		s = append(s, metricSpec{name: "cluster.handle_ms." + k.String(), unit: "ms", better: "lower"})
	}
	return append(s,
		metricSpec{name: "cluster.proc_bytes_per_op", unit: "B", better: "lower"},
		metricSpec{name: "cluster.disk_bytes_per_op", unit: "B", better: "lower"},
		metricSpec{name: "cluster.blockstore_ms_per_op", unit: "ms", better: "lower"},
		metricSpec{name: "cluster.blockstore_bytes_per_op", unit: "B", better: "lower"},
		metricSpec{name: "cluster.crc_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "lpq.decode_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "lpq.decode_dict_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "lpq.decode_plain_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "lpq.footer_parse_us", unit: "us", better: "lower"},
		metricSpec{name: "snappy.decode_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "sql.parse_us", unit: "us", better: "lower"},
		metricSpec{name: "sql.eval_mrows_per_s", unit: "Mrows/s", better: "higher"},
		metricSpec{name: "fac.layout_us", unit: "us", better: "lower"},
		metricSpec{name: "fac.overhead_vs_optimal", unit: "ratio", better: "lower"},
		metricSpec{name: "erasure.encode_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "erasure.reconstruct_mb_per_s", unit: "MB/s", better: "higher"},
		metricSpec{name: "metakv.get_us", unit: "us", better: "lower"},
		metricSpec{name: "metakv.put_us", unit: "us", better: "lower"},
		metricSpec{name: "metakv.incr_us", unit: "us", better: "lower"},
		metricSpec{name: "cache.meta_hit_rate", unit: "ratio", better: "higher"},
		metricSpec{name: "bench.serial_op_p50_ms", unit: "ms", better: "lower"},
		metricSpec{name: "bench.serial_op_p90_ms", unit: "ms", better: "lower"},
		metricSpec{name: "bench.background_op_p50_ms", unit: "ms", better: "lower"},
		metricSpec{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
		metricSpec{name: "bench.layers_cover_pct", unit: "%", better: "lower"},
	)
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so that the
// file at the root of the repository and the program cannot drift apart;
// `-spec` prints it and the smoke test compares it with the file.
func benchmarkJSON() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEndSpec {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerSpec {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(doc) // a struct of strings and numbers always encodes
	return b.String()
}
