// Package gateway exposes a Fusion store over HTTP, in the style of the
// cloud object-store front doors the paper positions Fusion behind (S3 +
// S3 Select, Azure query acceleration — Fig. 1): object PUT/GET/DELETE
// plus a query endpoint that runs SQL near the data.
//
//	PUT    /objects/{name}            store an lpq object (body = bytes)
//	GET    /objects/{name}            read it (optional ?offset= & ?length=)
//	DELETE /objects/{name}            remove it
//	GET    /objects/{name}/meta      footer summary (JSON)
//	POST   /query                     body = SELECT statement; JSON reply
//	POST   /scrub/{name}?repair=1     integrity scrub
//	POST   /scruball?repair=1         scrub every discoverable object
//	POST   /repair/{node}             rebuild a node's blocks (rejoin catch-up)
//	POST   /reconcile?force=1         garbage-collect crash debris
//	GET    /healthz                   liveness
//	GET    /debug/fusionz             observability: latency histograms,
//	                                  per-node health, recent request traces
//	                                  with read amplification (?format=text
//	                                  for the human-readable rendering)
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/fusionstore/fusion/internal/lpq"
	"github.com/fusionstore/fusion/internal/sql"
	"github.com/fusionstore/fusion/internal/store"
	"github.com/fusionstore/fusion/internal/trace"
)

// maxObjectBytes bounds a PUT body.
const maxObjectBytes = 4 << 30

// ringSize is how many finished request traces /debug/fusionz retains.
const ringSize = 64

// Handler routes gateway requests to a Store.
type Handler struct {
	store *store.Store
	mux   *http.ServeMux
	ring  *trace.Ring
}

// New builds the HTTP handler for a store.
func New(s *store.Store) *Handler {
	h := &Handler{store: s, mux: http.NewServeMux(), ring: trace.NewRing(ringSize)}
	h.mux.HandleFunc("PUT /objects/{name}", h.putObject)
	h.mux.HandleFunc("GET /objects/{name}", h.getObject)
	h.mux.HandleFunc("DELETE /objects/{name}", h.deleteObject)
	h.mux.HandleFunc("GET /objects/{name}/meta", h.getMeta)
	h.mux.HandleFunc("POST /query", h.query)
	h.mux.HandleFunc("POST /scrub/{name}", h.scrub)
	h.mux.HandleFunc("POST /scruball", h.scrubAll)
	h.mux.HandleFunc("POST /repair/{node}", h.repairNode)
	h.mux.HandleFunc("POST /reconcile", h.reconcile)
	h.mux.HandleFunc("GET /debug/fusionz", h.debugFusionz)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return h
}

// traced begins a request-scoped trace; the returned finish captures the
// completed span tree into the debug ring.
func (h *Handler) traced(r *http.Request, name string) (context.Context, func()) {
	ctx, sp := trace.Start(r.Context(), name)
	return ctx, func() {
		sp.End()
		h.ring.Add(sp)
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (h *Handler) putObject(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxObjectBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxObjectBytes {
		httpError(w, http.StatusRequestEntityTooLarge, errors.New("object too large"))
		return
	}
	ctx, finish := h.traced(r, "http.put "+name)
	defer finish()
	stats, err := h.store.PutContext(ctx, name, body)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"name":               name,
		"bytes":              len(body),
		"stored_bytes":       stats.StoredBytes,
		"layout":             stats.Mode.String(),
		"stripes":            stats.Stripes,
		"overhead_vs_opt":    stats.OverheadVsOptimal,
		"fell_back_to_fixed": stats.FellBack,
	})
}

func (h *Handler) getObject(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var offset, length uint64
	var err error
	if v := r.URL.Query().Get("offset"); v != "" {
		if offset, err = strconv.ParseUint(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad offset: %w", err))
			return
		}
	}
	if v := r.URL.Query().Get("length"); v != "" {
		if length, err = strconv.ParseUint(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad length: %w", err))
			return
		}
	}
	ctx, finish := h.traced(r, "http.get "+name)
	defer finish()
	data, err := h.store.GetContext(ctx, name, offset, length)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (h *Handler) deleteObject(w http.ResponseWriter, r *http.Request) {
	if err := h.store.DeleteContext(r.Context(), r.PathValue("name")); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *Handler) getMeta(w http.ResponseWriter, r *http.Request) {
	meta, err := h.store.Meta(r.PathValue("name"))
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	type colInfo struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	cols := make([]colInfo, len(meta.Footer.Columns))
	for i, c := range meta.Footer.Columns {
		cols[i] = colInfo{Name: c.Name, Type: c.Type.String()}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"name":       meta.Name,
		"size":       meta.Size,
		"layout":     meta.Mode.String(),
		"columns":    cols,
		"row_groups": len(meta.Footer.RowGroups),
		"rows":       meta.Footer.NumRows(),
		"chunks":     meta.Footer.NumChunks(),
		"stripes":    len(meta.Stripes),
	})
}

// QueryResponse is the JSON shape of a query reply.
type QueryResponse struct {
	Columns    []string       `json:"columns,omitempty"`
	Rows       [][]any        `json:"rows,omitempty"`
	Aggregates map[string]any `json:"aggregates,omitempty"`
	RowCount   int            `json:"row_count"`
	Stats      map[string]any `json:"stats"`
}

func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil || len(body) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("request body must be a SELECT statement"))
		return
	}
	ctx, finish := h.traced(r, "http.query")
	defer finish()
	res, err := h.store.QueryContext(ctx, string(body))
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	resp := QueryResponse{
		Columns:  res.Columns,
		RowCount: res.Rows,
		Stats: map[string]any{
			"selectivity":       res.Stats.Selectivity,
			"traffic_bytes":     res.Stats.TrafficBytes,
			"filter_rpcs":       res.Stats.FilterRPCs,
			"project_rpcs":      res.Stats.ProjectRPCs,
			"group_agg_rpcs":    res.Stats.GroupAggRPCs,
			"fetch_rpcs":        res.Stats.FetchRPCs,
			"pushdown_on":       res.Stats.PushdownOn,
			"pushdown_off":      res.Stats.PushdownOff,
			"pruned_row_groups": res.Stats.PrunedRowGroups,
			"wall_ns":           res.Stats.Wall.Nanoseconds(),
		},
	}
	if n := len(res.Data); n > 0 {
		rows := 0
		if res.Data[0].Len() > 0 {
			rows = res.Data[0].Len()
		}
		resp.Rows = make([][]any, rows)
		for i := 0; i < rows; i++ {
			row := make([]any, n)
			for c, col := range res.Data {
				switch col.Type {
				case lpq.Int64:
					row[c] = col.Ints[i]
				case lpq.Float64:
					row[c] = col.Floats[i]
				default:
					row[c] = col.Strings[i]
				}
			}
			resp.Rows[i] = row
		}
	}
	if len(res.AggValues) > 0 {
		resp.Aggregates = make(map[string]any, len(res.AggValues))
		for i, label := range res.AggLabels {
			v := res.AggValues[i]
			switch v.Kind {
			case sql.LitInt:
				resp.Aggregates[label] = v.I
			case sql.LitFloat:
				resp.Aggregates[label] = v.F
			default:
				resp.Aggregates[label] = v.S
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (h *Handler) scrub(w http.ResponseWriter, r *http.Request) {
	repair := r.URL.Query().Get("repair") == "1"
	ctx, finish := h.traced(r, "http.scrub "+r.PathValue("name"))
	defer finish()
	rep, err := h.store.Scrub(ctx, r.PathValue("name"), store.ScrubOptions{Repair: repair})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rep)
}

func (h *Handler) scrubAll(w http.ResponseWriter, r *http.Request) {
	repair := r.URL.Query().Get("repair") == "1"
	ctx, finish := h.traced(r, "http.scruball")
	defer finish()
	rep, err := h.store.ScrubAll(ctx, store.ScrubOptions{Repair: repair})
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"objects": rep.Objects,
		"totals":  rep.Totals(),
		"reports": rep.Reports,
		"errors":  rep.Errors,
	})
}

func (h *Handler) repairNode(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.PathValue("node"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad node id: %w", err))
		return
	}
	ctx, finish := h.traced(r, "http.repair "+r.PathValue("node"))
	defer finish()
	n, err := h.store.RepairNodeAll(ctx, node)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"node": node, "repaired": n})
}

func (h *Handler) reconcile(w http.ResponseWriter, r *http.Request) {
	force := r.URL.Query().Get("force") == "1"
	ctx, finish := h.traced(r, "http.reconcile")
	defer finish()
	rep, err := h.store.ReconcileOrphans(ctx, force)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rep)
}

// debugFusionz serves the observability snapshot: latency histograms by
// (op, node), per-node health counters, and the most recent request traces
// (span trees with read-amplification ratios). JSON by default;
// ?format=text renders the aligned tables and indented trees.
func (h *Handler) debugFusionz(w http.ResponseWriter, r *http.Request) {
	hist := h.store.Metrics()
	cstats := h.store.CacheStats()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "== histograms ==\n")
		hist.WriteText(w)
		fmt.Fprintf(w, "\n== node health ==\n%s", h.store.Health())
		fmt.Fprintf(w, "\n== cache ==\n")
		fmt.Fprintf(w, "meta:  hits %d  misses %d  rate %.2f  entries %d\n",
			cstats.Meta.Hits, cstats.Meta.Misses, cstats.Meta.HitRate(), cstats.Meta.Entries)
		fmt.Fprintf(w, "block: hits %d  misses %d  rate %.2f\n",
			cstats.Block.Hits, cstats.Block.Misses, cstats.Block.HitRate())
		fmt.Fprintf(w, "chunk: hits %d  misses %d  rate %.2f\n",
			cstats.Chunk.Hits, cstats.Chunk.Misses, cstats.Chunk.HitRate())
		fmt.Fprintf(w, "data:  %d entries  %d bytes  fills %d  evictions %d  invalidations %d  rejected %d\n",
			cstats.DataEntries, cstats.DataBytes, cstats.Fills, cstats.Evictions, cstats.Invalidations, cstats.Rejected)
		fmt.Fprintf(w, "flight: leaders %d  dedups %d  decodes %d\n",
			cstats.FlightLeaders, cstats.FlightDedups, cstats.Decodes)
		fmt.Fprintf(w, "\n== recent traces (%d seen) ==\n", h.ring.Seen())
		for _, tree := range h.ring.Trees() {
			fmt.Fprintf(w, "%s\n", tree)
		}
		return
	}
	out := map[string]any{
		"histograms":  hist.Snapshot(),
		"health":      h.store.Health().Snapshot(),
		"cache":       cstats,
		"traces":      h.ring.Snapshot(),
		"traces_seen": h.ring.Seen(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// statusFor maps store errors onto HTTP codes. An expired deadline maps to
// 504 and an object the store cannot parse to 422.
func statusFor(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "is not a valid lpq object"):
		return http.StatusUnprocessableEntity
	case strings.Contains(msg, "not found"):
		return http.StatusNotFound
	case strings.Contains(msg, "parse error"),
		strings.Contains(msg, "unknown column"),
		strings.Contains(msg, "beyond object"),
		strings.Contains(msg, "beyond the object"):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
