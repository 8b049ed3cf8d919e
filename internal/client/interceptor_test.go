package client_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/proxy"
)

// newInterceptedStack deploys the full PProx stack and fronts it with the
// transparent interceptor, as the sidecar does.
func newInterceptedStack(t *testing.T) (*cluster.Deployment, http.Handler) {
	t.Helper()
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		LRSFrontends: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, client.NewInterceptor(d.Client(15 * time.Second))
}

func do(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestInterceptorTransparentRoundTrip(t *testing.T) {
	d, h := newInterceptedStack(t)

	// An unmodified application posts PLAIN identifiers to the local
	// endpoint...
	for i := 0; i < 12; i++ {
		u := fmt.Sprintf("u%d", i)
		for _, item := range []string{"a", "b"} {
			rec := do(t, h, message.EventsPath, fmt.Sprintf(`{"user":%q,"item":%q}`, u, item))
			if rec.Code != http.StatusOK {
				t.Fatalf("post: %d %s", rec.Code, rec.Body)
			}
		}
	}
	for i := 0; i < 5; i++ {
		do(t, h, message.EventsPath, fmt.Sprintf(`{"user":"s%d","item":"c"}`, i))
	}
	do(t, h, message.EventsPath, `{"user":"probe","item":"a"}`)

	// ...but the LRS only ever receives pseudonyms. (Match the exact
	// cleartext names: a base64 pseudonym may itself start with "u" or "s".)
	clear := map[string]bool{"probe": true}
	for i := 0; i < 12; i++ {
		clear[fmt.Sprintf("u%d", i)] = true
	}
	for i := 0; i < 5; i++ {
		clear[fmt.Sprintf("s%d", i)] = true
	}
	d.Engine.ForEachEvent(func(doc store.Document) {
		if u := doc.Fields["user"]; clear[u] {
			t.Errorf("cleartext user %q reached the LRS through the interceptor", u)
		}
	})

	if err := d.Engine.TrainNow(); err != nil {
		t.Fatal(err)
	}

	rec := do(t, h, message.QueriesPath, `{"user":"probe"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	var resp message.LRSGetResponse
	if err := message.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) == 0 || resp.Items[0] != "b" {
		t.Errorf("items = %v, want plain-text b first — exactly the LRS contract", resp.Items)
	}
}

func TestInterceptorHonorsN(t *testing.T) {
	d, h := newInterceptedStack(t)
	for i := 0; i < 12; i++ {
		u := fmt.Sprintf("u%d", i)
		for j := 0; j < 6; j++ {
			do(t, h, message.EventsPath, fmt.Sprintf(`{"user":%q,"item":"i%d"}`, u, j))
		}
	}
	do(t, h, message.EventsPath, `{"user":"probe","item":"i0"}`)
	if err := d.Engine.TrainNow(); err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, message.QueriesPath, `{"user":"probe","n":2}`)
	var resp message.LRSGetResponse
	if err := message.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) > 2 {
		t.Errorf("n ignored: %v", resp.Items)
	}
}

func TestInterceptorValidation(t *testing.T) {
	_, h := newInterceptedStack(t)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"missing user", message.EventsPath, `{"item":"i"}`, http.StatusBadRequest},
		{"missing item", message.EventsPath, `{"user":"u"}`, http.StatusBadRequest},
		{"bad json", message.EventsPath, `{`, http.StatusBadRequest},
		{"missing user on query", message.QueriesPath, `{}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rec := do(t, h, tc.path, tc.body); rec.Code != tc.want {
				t.Errorf("status = %d, want %d", rec.Code, tc.want)
			}
		})
	}
	// Health and unknown paths.
	req := httptest.NewRequest(http.MethodGet, message.HealthPath, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("health = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/nope", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path = %d", rec.Code)
	}
}

func TestInterceptorUpstreamFailure(t *testing.T) {
	// An interceptor whose PProx target is gone must report a gateway
	// error, not hang or crash.
	bundleSrcUA, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	bundleSrcIA, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(proxy.Bundle(bundleSrcUA, bundleSrcIA),
		&http.Client{Timeout: 500 * time.Millisecond}, "http://127.0.0.1:1")
	h := client.NewInterceptor(cl)
	rec := do(t, h, message.EventsPath, `{"user":"u","item":"i"}`)
	if rec.Code != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", rec.Code)
	}
}
