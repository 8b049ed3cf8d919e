package engine

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pprox/internal/message"
	"pprox/internal/metrics"
)

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRESTEventInsertAndQuery(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHandler(e)

	for i := 0; i < 12; i++ {
		u := fmt.Sprintf("u%d", i)
		for _, item := range []string{"a", "b"} {
			rec := do(t, h, http.MethodPost, message.EventsPath,
				fmt.Sprintf(`{"user":%q,"item":%q}`, u, item))
			if rec.Code != http.StatusOK {
				t.Fatalf("post event: status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	for i := 0; i < 4; i++ {
		do(t, h, http.MethodPost, message.EventsPath,
			fmt.Sprintf(`{"user":"solo%d","item":"c"}`, i))
	}
	do(t, h, http.MethodPost, message.EventsPath, `{"user":"probe","item":"a"}`)

	if rec := do(t, h, http.MethodPost, "/train", ""); rec.Code != http.StatusOK {
		t.Fatalf("train: status %d", rec.Code)
	}

	rec := do(t, h, http.MethodPost, message.QueriesPath, `{"user":"probe","n":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: status %d: %s", rec.Code, rec.Body)
	}
	var resp message.LRSGetResponse
	if err := message.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) == 0 || resp.Items[0] != "b" {
		t.Errorf("items = %v, want b first", resp.Items)
	}
	// One hit for five asked: the REST query was topped up from the
	// popularity ranking, and counted as such.
	if _, queries, _ := e.Stats(); queries != 1 || e.PopularFills() != 1 {
		t.Errorf("queries/popular fills = %d/%d, want 1/1", queries, e.PopularFills())
	}
}

func TestRESTValidation(t *testing.T) {
	h := NewHandler(New(DefaultConfig()))
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"missing user on event", http.MethodPost, message.EventsPath, `{"item":"i"}`, http.StatusBadRequest},
		{"missing item on event", http.MethodPost, message.EventsPath, `{"user":"u"}`, http.StatusBadRequest},
		{"bad json on event", http.MethodPost, message.EventsPath, `{`, http.StatusBadRequest},
		{"missing user on query", http.MethodPost, message.QueriesPath, `{}`, http.StatusBadRequest},
		{"bad json on query", http.MethodPost, message.QueriesPath, `]`, http.StatusBadRequest},
		{"unknown path", http.MethodGet, "/nope", "", http.StatusNotFound},
		{"wrong method on events", http.MethodGet, message.EventsPath, "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, h, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Errorf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
		})
	}
}

func TestRESTHealth(t *testing.T) {
	h := NewHandler(New(DefaultConfig()))
	rec := do(t, h, http.MethodGet, message.HealthPath, "")
	if rec.Code != http.StatusOK {
		t.Errorf("health = %d", rec.Code)
	}
}

func TestRESTQueryWithoutNUsesDefault(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHandler(e)
	do(t, h, http.MethodPost, message.EventsPath, `{"user":"u","item":"i"}`)
	rec := do(t, h, http.MethodPost, message.QueriesPath, `{"user":"u"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp message.LRSGetResponse
	if err := message.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) > message.MaxRecommendations {
		t.Errorf("returned %d items, above maximum", len(resp.Items))
	}
}

// TestRESTEventStorageFailureAnswers503: when the engine cannot make an
// event durable (the WAL append fails), the client must NOT be told
// "ok" — it gets a retryable 503 and the event is counted rejected.
func TestRESTEventStorageFailureAnswers503(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WALDir = t.TempDir()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(e)

	if rec := do(t, h, http.MethodPost, message.EventsPath, `{"user":"u","item":"i"}`); rec.Code != http.StatusOK {
		t.Fatalf("healthy post: status %d: %s", rec.Code, rec.Body)
	}
	// Kill the WAL out from under the engine: appends now fail and the
	// engine rejects the event.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, http.MethodPost, message.EventsPath, `{"user":"u","item":"j"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("rejected post: status %d, want 503: %s", rec.Code, rec.Body)
	}
	// The cause names the WAL file; it is the engine's to log, not the
	// client's to read.
	if body := rec.Body.String(); body != "event not stored\n" || strings.Contains(body, cfg.WALDir) {
		t.Fatalf("rejected post's body = %q, want the constant text and no path", body)
	}
	if e.EventCount() != 1 {
		t.Fatalf("events = %d after rejected post, want 1", e.EventCount())
	}
	if e.WALErrors() != 1 {
		t.Fatalf("wal errors = %d, want 1", e.WALErrors())
	}
}

// TestRESTRowsRescoredOnMetricsPage: posts arriving over REST, each
// followed by a get, advance the rows-re-scored counter, and the scrape
// an operator runs shows it beside the applied-events counter as a plain
// unlabelled series.
func TestRESTRowsRescoredOnMetricsPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incremental = true
	e := New(cfg)
	reg := metrics.NewRegistry()
	h := e.RegisterMetrics(reg, "")(NewHandler(e))
	for _, body := range []string{
		`{"user":"u1","item":"a"}`, // a
		`{"user":"u1","item":"b"}`, // a, b
		`{"user":"u2","item":"b"}`, // b
	} {
		if rec := do(t, h, http.MethodPost, message.EventsPath, body); rec.Code != http.StatusOK {
			t.Fatalf("post %s: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec := do(t, h, http.MethodPost, message.QueriesPath, `{"user":"u1"}`); rec.Code != http.StatusOK {
			t.Fatalf("get after %s: status %d: %s", body, rec.Code, rec.Body)
		}
	}
	page := do(t, reg, http.MethodGet, "/metrics", "").Body.String()
	for _, line := range []string{"pprox_lrs_rows_rescored_total 4\n", "pprox_lrs_events_applied_total 3\n"} {
		if !strings.Contains(page, line) {
			t.Errorf("metrics page lacks %q", line)
		}
	}
}

// TestRESTDuplicateIdemAnswersOK: a retried delivery (same idempotency
// key) is dropped but still answers 200 — the event IS stored, by the
// earlier delivery.
func TestRESTDuplicateIdemAnswersOK(t *testing.T) {
	e := New(DefaultConfig())
	h := NewHandler(e)
	for i := 0; i < 2; i++ {
		rec := do(t, h, http.MethodPost, message.EventsPath, `{"user":"u","item":"i","idem":"k1"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("delivery %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if e.EventCount() != 1 {
		t.Fatalf("events = %d, want 1 (duplicate double-counted)", e.EventCount())
	}
	if e.DupEvents() != 1 {
		t.Fatalf("dups = %d, want 1", e.DupEvents())
	}
}
