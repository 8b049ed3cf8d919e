package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/rotation"
)

// edgeFields records the length of every layer-sealed field clients put
// on the wire to a deployment's UA nodes.
type edgeFields struct {
	mu    sync.Mutex
	sizes map[string][]int // JSON field name → decoded lengths seen
}

func (f *edgeFields) middleware(addr string, h http.Handler) http.Handler {
	if !strings.HasPrefix(addr, "ua-") {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == message.EventsPath || r.URL.Path == message.QueriesPath {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var fields map[string]string
			if err := message.Unmarshal(body, &fields); err == nil {
				f.mu.Lock()
				for _, name := range []string{"enc_user", "enc_item", "enc_temp_key"} {
					if ct, err := message.Decode64(fields[name]); err == nil && len(ct) > 0 {
						f.sizes[name] = append(f.sizes[name], len(ct))
					}
				}
				f.mu.Unlock()
			}
		}
		h.ServeHTTP(w, r)
	})
}

// take returns and clears what was recorded.
func (f *edgeFields) take() map[string][]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	got := f.sizes
	f.sizes = map[string][]int{}
	return got
}

// assertEpochFields checks what one epochOf put on the wire: s user fields,
// one item field and s−1 temporary keys, each of its suite's one length.
func assertEpochFields(t *testing.T, got map[string][]int, s int, want map[string]int) {
	t.Helper()
	for name, count := range map[string]int{"enc_user": s, "enc_item": 1, "enc_temp_key": s - 1} {
		if len(got[name]) != count {
			t.Errorf("%s: saw %d fields, want %d", name, len(got[name]), count)
		}
		for _, n := range got[name] {
			if n != want[name] {
				t.Errorf("%s: a %d-byte field on the wire, want every one %d bytes", name, n, want[name])
			}
		}
	}
}

// epochOf runs one full shuffle epoch — s−1 gets and a post — through cl
// and checks every answer against the stub's exact list.
func epochOf(t *testing.T, cl *client.Client, s int, tag string) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("%s-%d", tag, i)
			if i == 0 {
				if err := cl.Post(ctx, user, "movie-1", "4.0"); err != nil {
					t.Errorf("post %s: %v", user, err)
				}
				return
			}
			items, err := cl.Get(ctx, user)
			if err != nil {
				t.Errorf("get %s: %v", user, err)
				return
			}
			if len(items) != message.MaxRecommendations || items[0] != "stub-item-0000" {
				t.Errorf("get %s: %d items, first %q; want the stub's list", user, len(items), items[0])
			}
		}(i)
	}
	wg.Wait()
}

// TestDefaultDeploymentSealsBoxes: what Deploy ships — and pprox-keygen,
// and therefore the benchmark — is key material with both keys, and a
// client holding its bundle seals every field as a box: no RSA-sized field
// ever leaves it. A client still holding an RSA-only bundle for the same
// keys is served by the same enclaves, correctly. The paper's specs pin
// RSA-only material, under which clients emit RSA-sized fields only.
func TestDefaultDeploymentSealsBoxes(t *testing.T) {
	const s = 4
	boxSizes := map[string]int{
		"enc_user":     ppcrypto.IDBlockSize + ppcrypto.BoxOverhead,
		"enc_item":     ppcrypto.IDBlockSize + ppcrypto.BoxOverhead,
		"enc_temp_key": ppcrypto.SymmetricKeySize + ppcrypto.BoxOverhead,
	}
	rsaSizes := map[string]int{
		"enc_user": ppcrypto.RSACiphertextSize, "enc_item": ppcrypto.RSACiphertextSize, "enc_temp_key": ppcrypto.RSACiphertextSize,
	}
	seen := &edgeFields{sizes: map[string][]int{}}
	spec := Spec{
		ProxyEnabled: true, UA: 1, IA: 1, Encryption: true, ItemPseudonyms: true,
		Shuffle: s, ShuffleTimeout: 2 * time.Second, Hopwire: true,
		UseStub: true, LRSFrontends: 1, NodeMiddleware: seen.middleware,
	}
	d, err := Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.UAKeys.Box == nil || d.IAKeys.Box == nil {
		t.Fatal("default deployment generated no box keys")
	}

	epochOf(t, d.Client(10*time.Second), s, "fresh")
	assertEpochFields(t, seen.take(), s, boxSizes)

	stale := proxy.Bundle(d.UAKeys, d.IAKeys)
	stale.UABox, stale.IABox = nil, nil
	epochOf(t, client.New(stale, d.HTTPClient(10*time.Second), d.Entry), s, "stale")
	assertEpochFields(t, seen.take(), s, rsaSizes)

	// The paper's rows: RSA-only material, RSA-sized fields.
	for _, paper := range []Spec{SpecFromMicro(MicroConfigs()[5]), SpecFromMacro(FullConfigs()[0])} {
		if !paper.RSAOnlyKeys {
			t.Errorf("a paper spec does not pin RSA-only key material: %+v", paper)
		}
	}
	spec.RSAOnlyKeys = true
	p, err := Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.UAKeys.Box != nil || p.IAKeys.Box != nil {
		t.Fatal("RSAOnlyKeys deployment generated box keys")
	}
	epochOf(t, p.Client(10*time.Second), s, "paper")
	assertEpochFields(t, seen.take(), s, rsaSizes)
}

// TestRotationOnLiveDeploymentReplacesTheBoxKey: a breach response on a
// running default deployment replaces every asymmetric key of the layer.
// The moment the enclave is re-provisioned, the old bundle — box or RSA —
// stops opening, and the fresh bundle works on the very next message.
func TestRotationOnLiveDeploymentReplacesTheBoxKey(t *testing.T) {
	d, err := Deploy(Spec{
		ProxyEnabled: true, UA: 1, IA: 1, Encryption: true, ItemPseudonyms: true,
		LRSFrontends: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	hc := d.HTTPClient(10 * time.Second)

	oldBox := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), hc, d.Entry)
	oldRSA := proxy.Bundle(d.UAKeys, d.IAKeys)
	oldRSA.UABox, oldRSA.IABox = nil, nil
	for _, cl := range []*client.Client{oldBox, client.New(oldRSA, hc, d.Entry)} {
		if err := cl.Post(ctx, "alice", "movie-1", "4.0"); err != nil {
			t.Fatalf("before rotation: %v", err)
		}
	}

	res, err := rotation.RotateKeys(rotation.LayerUA, d.UAKeys, d.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fresh.Box == nil || res.Fresh.Box.Equal(d.UAKeys.Box) {
		t.Fatal("rotation of default key material did not replace the box key")
	}
	if res.Fresh.Pair.Private.Equal(d.UAKeys.Pair.Private) {
		t.Fatal("rotation did not replace the RSA key")
	}
	res.Fresh.LinkKey = d.UAKeys.LinkKey // the hop key is the deployment's, not the layer's
	if err := res.Fresh.Provision(d.attestation, d.UALayers[0].Enclave(), proxy.UAIdentity); err != nil {
		t.Fatal(err)
	}

	for name, cl := range map[string]*client.Client{"box": oldBox, "rsa-only": client.New(oldRSA, hc, d.Entry)} {
		if err := cl.Post(ctx, "alice", "movie-2", "4.0"); !errors.Is(err, client.ErrServiceStatus) {
			t.Errorf("old %s bundle after rotation: err = %v, want a refused request", name, err)
		}
	}
	fresh := client.New(proxy.Bundle(res.Fresh, d.IAKeys), hc, d.Entry)
	if err := fresh.Post(ctx, "alice", "movie-2", "4.0"); err != nil {
		t.Errorf("fresh bundle on the first message after rotation: %v", err)
	}
	// And the event landed under the fresh pseudonym the migration moved
	// alice's history to: 2 from before (re-keyed) + this one.
	want, err := res.Fresh.PseudonymizeItems([]string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	d.Engine.ForEachEvent(func(doc store.Document) {
		if doc.Fields["user"] == want[0] {
			n++
		}
	})
	if n != 3 {
		t.Errorf("alice's history under the fresh pseudonym has %d events, want 3", n)
	}
}
