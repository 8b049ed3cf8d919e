package proxy_test

import (
	"context"
	"encoding/base64"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/enclave"
	"pprox/internal/hopwire"
	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

// tenantStack deploys ONE proxy pair serving TWO applications (§6.3
// multi-tenancy): both tenants' keys live in the same enclaves, raising
// the traffic each shuffle buffer sees.
type tenantStack struct {
	net     *transport.Network
	engines map[string]*engine.Engine
	uaEncl  *enclave.Enclave
	iaEncl  *enclave.Enclave
	keysUA  map[string]*proxy.LayerKeys
	keysIA  map[string]*proxy.LayerKeys
	clients map[string]*client.Client
}

func newTenantStack(t *testing.T, tenants []string) *tenantStack {
	t.Helper()
	st := &tenantStack{
		net:     transport.NewNetwork(),
		engines: make(map[string]*engine.Engine),
		keysUA:  make(map[string]*proxy.LayerKeys),
		keysIA:  make(map[string]*proxy.LayerKeys),
		clients: make(map[string]*client.Client),
	}
	t.Cleanup(func() { st.net.Close() })

	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform := enclave.NewPlatform(as)
	st.uaEncl = proxy.NewUAEnclave(platform)
	st.iaEncl = proxy.NewIAEnclave(platform, proxy.IAOptions{})

	for _, tenant := range tenants {
		if st.keysUA[tenant], err = proxy.NewLayerKeys(); err != nil {
			t.Fatal(err)
		}
		if st.keysIA[tenant], err = proxy.NewLayerKeys(); err != nil {
			t.Fatal(err)
		}
	}
	if err := proxy.ProvisionTenants(as, st.uaEncl, proxy.UAIdentity, st.keysUA); err != nil {
		t.Fatal(err)
	}
	if err := proxy.ProvisionTenants(as, st.iaEncl, proxy.IAIdentity, st.keysIA); err != nil {
		t.Fatal(err)
	}

	// One engine per application, routed by tenant — the Harness
	// deployment model.
	for _, tenant := range tenants {
		st.engines[tenant] = engine.New(engine.DefaultConfig())
	}
	l, err := st.net.Listen("lrs")
	if err != nil {
		t.Fatal(err)
	}
	sd := hopwire.ServeHTTPAndFrames(l, engine.NewMultiHandler(st.engines, nil))
	t.Cleanup(func() { sd() })

	httpClient := transport.HTTPClient(st.net, 10*time.Second)
	ia, err := proxy.New(proxy.Config{Role: proxy.RoleIA, Enclave: st.iaEncl, Next: "http://lrs", Dialer: st.net})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := st.net.Listen("ia")
	if err != nil {
		t.Fatal(err)
	}
	sd2 := hopwire.ServeHTTPAndFrames(l2, ia)
	t.Cleanup(func() { sd2() })

	ua, err := proxy.New(proxy.Config{Role: proxy.RoleUA, Enclave: st.uaEncl, Next: "http://ia", Dialer: st.net})
	if err != nil {
		t.Fatal(err)
	}
	l3, err := st.net.Listen("ua")
	if err != nil {
		t.Fatal(err)
	}
	sd3 := hopwire.ServeHTTPAndFrames(l3, ua)
	t.Cleanup(func() { sd3() })

	base := client.New(proxy.PublicBundle{}, httpClient, "http://ua")
	for _, tenant := range tenants {
		st.clients[tenant] = base.ForTenant(tenant, proxy.Bundle(st.keysUA[tenant], st.keysIA[tenant]))
	}
	return st
}

func TestMultiTenantIsolationAndFunction(t *testing.T) {
	st := newTenantStack(t, []string{"shop", "forum"})
	ctx := context.Background()

	// The same user name exists in both applications; their pseudonyms
	// must differ (per-tenant kUA) and both tenants must work end to
	// end through the shared enclaves.
	if err := st.clients["shop"].Post(ctx, "alice", "toaster", ""); err != nil {
		t.Fatalf("shop post: %v", err)
	}
	if err := st.clients["forum"].Post(ctx, "alice", "thread-42", ""); err != nil {
		t.Fatalf("forum post: %v", err)
	}

	var users []string
	for _, tenant := range []string{"shop", "forum"} {
		st.engines[tenant].ForEachEvent(func(d store.Document) {
			users = append(users, d.Fields["user"])
			if raw, err := base64.StdEncoding.DecodeString(d.Fields["user"]); err != nil || len(raw) != 64 {
				t.Errorf("unpseudonymized user %q at LRS", d.Fields["user"])
			}
		})
	}
	if len(users) != 2 || users[0] == users[1] {
		t.Errorf("same user in two tenants must map to distinct pseudonyms: %v", users)
	}
}

func TestMultiTenantGetPath(t *testing.T) {
	st := newTenantStack(t, []string{"shop", "forum"})
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		u := string(rune('a'+i)) + "-user"
		if err := st.clients["shop"].Post(ctx, u, "x", ""); err != nil {
			t.Fatal(err)
		}
		if err := st.clients["shop"].Post(ctx, u, "y", ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := st.clients["shop"].Post(ctx, string(rune('p'+i))+"-s", "z", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.clients["shop"].Post(ctx, "probe", "x", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.engines["shop"].TrainNow(); err != nil {
		t.Fatal(err)
	}

	items, err := st.clients["shop"].Get(ctx, "probe")
	if err != nil {
		t.Fatalf("tenant get: %v", err)
	}
	if len(items) == 0 || items[0] != "y" {
		t.Errorf("tenant recommendations = %v, want y first", items)
	}

	// The other tenant's client cannot read shop data: its traffic
	// routes to its own (empty) engine and its keys differ.
	items, err = st.clients["forum"].Get(ctx, "probe")
	if err != nil {
		t.Fatalf("forum get: %v", err)
	}
	if len(items) != 0 {
		t.Errorf("forum tenant received items %v from an empty catalog", items)
	}
}

func TestMultiTenantCompromiseLeaksAllTenants(t *testing.T) {
	// §6.3's stated risk, verified: "This comes, however, with increased
	// risks in case an enclave is broken, as secrets for multiple
	// applications could be stolen at once."
	st := newTenantStack(t, []string{"shop", "forum"})
	ctx := context.Background()
	if err := st.clients["shop"].Post(ctx, "alice", "toaster", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.clients["forum"].Post(ctx, "bob", "thread", ""); err != nil {
		t.Fatal(err)
	}

	loot := st.uaEncl.Compromise()
	for _, tenant := range []string{"shop", "forum"} {
		kUA, ok := loot[proxy.TenantSecret("k", tenant)]
		if !ok {
			t.Fatalf("loot missing tenant %q permanent key", tenant)
		}
		// The leaked per-tenant key decrypts that tenant's pseudonyms.
		var broken bool
		st.engines[tenant].ForEachEvent(func(d store.Document) {
			raw, err := base64.StdEncoding.DecodeString(d.Fields["user"])
			if err != nil {
				return
			}
			if id, err := ppcrypto.Depseudonymize(kUA, raw); err == nil && (id == "alice" || id == "bob") {
				broken = true
			}
		})
		if !broken {
			t.Errorf("tenant %q pseudonyms survived a UA compromise — test wiring wrong", tenant)
		}
	}
}
