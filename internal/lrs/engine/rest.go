package engine

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"pprox/internal/message"
)

// maxBodyBytes bounds REST request bodies; PProx messages are small and
// constant-size, so anything large is malformed or hostile.
const maxBodyBytes = 1 << 20

// MultiHandler routes REST traffic to per-application engines by the
// request's tenant field — the way a Harness deployment hosts one engine
// per RaaS client application. Unknown tenants are rejected; the empty
// tenant routes to the default engine when one is set.
type MultiHandler struct {
	engines map[string]*Engine
	// fallback serves the empty tenant (single-tenant clients).
	fallback *Handler
	handlers map[string]*Handler
}

// NewMultiHandler builds the router. The defaultEngine may be nil if every
// client names a tenant.
func NewMultiHandler(engines map[string]*Engine, defaultEngine *Engine) *MultiHandler {
	mh := &MultiHandler{engines: engines, handlers: make(map[string]*Handler, len(engines))}
	for tenant, e := range engines {
		mh.handlers[tenant] = NewHandler(e)
	}
	if defaultEngine != nil {
		mh.fallback = NewHandler(defaultEngine)
	}
	return mh
}

// ServeHTTP routes by the tenant field of the JSON body.
func (mh *MultiHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == message.HealthPath {
		fmt.Fprint(w, "ok")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var probe struct {
		Tenant string `json:"tenant"`
	}
	// Tolerate non-JSON bodies here; the routed handler validates.
	_ = message.Unmarshal(body, &probe)

	h := mh.fallback
	if probe.Tenant != "" {
		h = mh.handlers[probe.Tenant]
	}
	if h == nil {
		http.Error(w, "unknown tenant", http.StatusNotFound)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	h.ServeHTTP(w, r)
}

// Handler exposes the engine over the LRS REST API (§2.1):
//
//	POST /events  — post(u, i[, p]) feedback insertion
//	POST /queries — get(u) recommendation query
//	POST /train   — trigger the batch training job (operator endpoint)
//	GET  /healthz — liveness
type Handler struct {
	engine *Engine
}

// NewHandler wraps an engine in its REST front end.
func NewHandler(e *Engine) *Handler { return &Handler{engine: e} }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == message.EventsPath:
		h.postEvent(w, r)
	case r.Method == http.MethodPost && r.URL.Path == message.QueriesPath:
		h.postQuery(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/train":
		h.postTrain(w)
	case r.Method == http.MethodGet && r.URL.Path == message.HealthPath:
		fmt.Fprint(w, "ok")
	default:
		http.NotFound(w, r)
	}
}

// eventNotStored is the whole body of a post's 503.
const eventNotStored = "event not stored"

func (h *Handler) postEvent(w http.ResponseWriter, r *http.Request) {
	var req message.LRSPost
	if !readJSON(w, r, &req) {
		return
	}
	if req.User == "" || req.Item == "" {
		http.Error(w, "user and item are required", http.StatusBadRequest)
		return
	}
	// A duplicate idempotency key still answers "ok": the event IS
	// stored, just by the earlier delivery this one retried. A storage
	// failure (the WAL append was rejected) must NOT answer "ok" — the
	// event was dropped, so the client gets 503 and retries. The body is
	// constant: the cause is an *os.PathError naming the WAL file, which
	// the engine logs and which must not travel through IA and UA to the
	// client.
	if _, err := h.engine.InsertTypedEventIdem(req.User, req.Item, req.Payload, req.Event, req.Idem); err != nil {
		http.Error(w, eventNotStored, http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, message.OK{Status: "ok"})
}

func (h *Handler) postQuery(w http.ResponseWriter, r *http.Request) {
	var req message.LRSGet
	if !readJSON(w, r, &req) {
		return
	}
	if req.User == "" {
		http.Error(w, "user is required", http.StatusBadRequest)
		return
	}
	items := h.engine.Recommend(req.User, req.N)
	writeJSON(w, message.LRSGetResponse{Items: items})
}

func (h *Handler) postTrain(w http.ResponseWriter) {
	if err := h.engine.TrainNow(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, message.OK{Status: "trained"})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := message.Unmarshal(body, v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	data, err := message.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
