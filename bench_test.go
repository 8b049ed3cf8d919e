// Package pprox_test is the benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (§8), exercising the real
// implementation on the in-memory network, plus component benchmarks for
// the cryptographic and retrieval substrates.
//
// The absolute series of each figure — candlestick distributions over the
// full 50–1000 RPS sweep on the simulated 27-node testbed — are
// regenerated by `go run ./cmd/pprox-bench all`; these benchmarks measure
// the same code paths per-operation on this host.
package pprox_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/enclave"
	"pprox/internal/lrs/cco"
	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/search"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/rotation"
	"pprox/internal/sim"
	"pprox/internal/workload"
)

// deployMicro brings up a Table 2 configuration and returns a client.
func deployMicro(b *testing.B, name string, mutate func(*cluster.Spec)) (*cluster.Deployment, *client.Client) {
	b.Helper()
	var cfg cluster.MicroConfig
	found := false
	for _, c := range cluster.MicroConfigs() {
		if c.Name == name {
			cfg, found = c, true
			break
		}
	}
	if !found {
		b.Fatalf("unknown configuration %s", name)
	}
	spec := cluster.SpecFromMicro(cfg)
	if mutate != nil {
		mutate(&spec)
	}
	d, err := cluster.Deploy(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d, d.Client(30 * time.Second)
}

// benchGets drives b.N get requests through the deployment.
func benchGets(b *testing.B, cl *client.Client) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get(ctx, "bench-user"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGetsParallel drives b.N get requests with enough concurrency to
// fill shuffle buffers.
func benchGetsParallel(b *testing.B, cl *client.Client, parallelism int) {
	b.Helper()
	b.SetParallelism(parallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		i := 0
		for pb.Next() {
			if _, err := cl.Get(ctx, fmt.Sprintf("bench-user-%d", i)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// --- Figure 6: impact of each privacy feature (m1–m4) ------------------

func BenchmarkFig6_m1_NoSecurity(b *testing.B) {
	_, cl := deployMicro(b, "m1", nil)
	benchGets(b, cl)
}

func BenchmarkFig6_m2_Encryption(b *testing.B) {
	_, cl := deployMicro(b, "m2", nil)
	benchGets(b, cl)
}

func BenchmarkFig6_m3_EncryptionSGX(b *testing.B) {
	_, cl := deployMicro(b, "m3", nil)
	benchGets(b, cl)
}

func BenchmarkFig6_m4_NoItemPseudonyms(b *testing.B) {
	_, cl := deployMicro(b, "m4", nil)
	benchGets(b, cl)
}

// --- Figure 7: impact of shuffling (m5, m6) ----------------------------

func BenchmarkFig7_m5_ShuffleS5(b *testing.B) {
	_, cl := deployMicro(b, "m5", func(s *cluster.Spec) {
		s.ShuffleTimeout = 20 * time.Millisecond
	})
	benchGetsParallel(b, cl, 8)
}

func BenchmarkFig7_m6_ShuffleS10(b *testing.B) {
	_, cl := deployMicro(b, "m6", func(s *cluster.Spec) {
		s.ShuffleTimeout = 20 * time.Millisecond
	})
	benchGetsParallel(b, cl, 16)
}

// --- Figure 8: proxy horizontal scaling (m6–m9 instance counts) --------

func BenchmarkFig8_Instances1(b *testing.B) {
	_, cl := deployMicro(b, "m6", func(s *cluster.Spec) { s.Shuffle = 0 })
	benchGetsParallel(b, cl, 8)
}

func BenchmarkFig8_Instances2(b *testing.B) {
	_, cl := deployMicro(b, "m7", func(s *cluster.Spec) { s.Shuffle = 0 })
	benchGetsParallel(b, cl, 8)
}

func BenchmarkFig8_Instances4(b *testing.B) {
	_, cl := deployMicro(b, "m9", func(s *cluster.Spec) { s.Shuffle = 0 })
	benchGetsParallel(b, cl, 8)
}

// --- Figure 9: Harness LRS baseline (b-configurations) -----------------

func deployMacroBaseline(b *testing.B) (*cluster.Deployment, *client.Client) {
	b.Helper()
	spec := cluster.SpecFromMacro(cluster.BaselineConfigs()[0])
	d, err := cluster.Deploy(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	cl := d.Client(30 * time.Second)
	seedEngine(b, d, cl)
	return d, cl
}

func seedEngine(b *testing.B, d *cluster.Deployment, cl *client.Client) {
	b.Helper()
	ctx := context.Background()
	ds := workload.Generate(workload.ScaledMovieLensParams(0.001))
	for _, ev := range ds.Events {
		if err := cl.Post(ctx, ev.User, ev.Item, ev.Rating); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Engine.TrainNow(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig9_b1_HarnessGet(b *testing.B) {
	_, cl := deployMacroBaseline(b)
	ctx := context.Background()
	users := workload.Generate(workload.ScaledMovieLensParams(0.001)).DistinctUsers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get(ctx, users[i%len(users)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_b1_HarnessPost(b *testing.B) {
	_, cl := deployMacroBaseline(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Post(ctx, "bench-user", fmt.Sprintf("item-%d", i), ""); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: full integrated system (f-configurations) --------------

func BenchmarkFig10_f1_FullStackGet(b *testing.B) {
	spec := cluster.SpecFromMacro(cluster.FullConfigs()[0])
	spec.Shuffle = 0 // shuffle latency measured by Fig7 benches
	d, err := cluster.Deploy(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	cl := d.Client(30 * time.Second)
	seedEngine(b, d, cl)
	ctx := context.Background()
	users := workload.Generate(workload.ScaledMovieLensParams(0.001)).DistinctUsers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get(ctx, users[i%len(users)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 2/3: the simulator regenerating each figure point ----------

func BenchmarkTable2_SimMicroPoint(b *testing.B) {
	cfg := cluster.MicroConfigs()[2] // m3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := sim.NewSystem(sim.FromMicro(cfg))
		sys.Run(250, 5*time.Second, 500*time.Millisecond)
	}
}

func BenchmarkTable3_SimMacroPoint(b *testing.B) {
	cfg := cluster.FullConfigs()[0] // f1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := sim.NewSystem(sim.FromMacro(cfg))
		sys.Run(250, 5*time.Second, 500*time.Millisecond)
	}
}

// --- Component benchmarks (ablation: where the milliseconds go) --------

func BenchmarkCrypto_OAEPEncrypt(b *testing.B) {
	kp, err := ppcrypto.GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	block, _ := ppcrypto.PadID("user-12345")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppcrypto.EncryptOAEP(kp.Public, block); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrypto_OAEPDecrypt(b *testing.B) {
	kp, err := ppcrypto.GenerateKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	block, _ := ppcrypto.PadID("user-12345")
	ct, err := ppcrypto.EncryptOAEP(kp.Public, block)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppcrypto.DecryptOAEP(kp.Private, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrypto_BoxSeal(b *testing.B) {
	k, err := ppcrypto.GenerateBoxKey()
	if err != nil {
		b.Fatal(err)
	}
	block, _ := ppcrypto.PadID("user-12345")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppcrypto.SealBox(k.PublicKey(), ppcrypto.RoleUAUser, block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrypto_BoxOpen is the box suite's private-key operation, to be
// read beside BenchmarkCrypto_OAEPDecrypt: the ratio of the two is what
// the default key material buys a request, twice.
func BenchmarkCrypto_BoxOpen(b *testing.B) {
	k, err := ppcrypto.GenerateBoxKey()
	if err != nil {
		b.Fatal(err)
	}
	block, _ := ppcrypto.PadID("user-12345")
	box, err := ppcrypto.SealBox(k.PublicKey(), ppcrypto.RoleUAUser, block)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppcrypto.OpenBox(k, ppcrypto.RoleUAUser, box); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClient_SealGet is what the user-side library spends sealing a
// get's two fields, per key material. On box read it beside
// BenchmarkCrypto_BoxSeal: both boxes share one ephemeral key, so a get is
// one key generation and two X25519s — about 1.5× one BoxSeal, not 2×. On
// rsa-only it is two OAEP encryptions, 2× BenchmarkCrypto_OAEPEncrypt.
func BenchmarkClient_SealGet(b *testing.B) {
	for _, km := range keyMaterials {
		b.Run(km.name, func(b *testing.B) {
			uaKeys, err := km.newKeys()
			if err != nil {
				b.Fatal(err)
			}
			iaKeys, err := km.newKeys()
			if err != nil {
				b.Fatal(err)
			}
			bundle := proxy.Bundle(uaKeys, iaKeys)
			block, _ := ppcrypto.PadID("user-12345")
			ku, err := ppcrypto.NewSymmetricKey()
			if err != nil {
				b.Fatal(err)
			}
			ua, ia := bundle.UAField(ppcrypto.RoleUAUser, block), bundle.IAField(ppcrypto.RoleIATempKey, ku)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ppcrypto.SealPair(ua, ia); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// keyMaterials are the two kinds of layer key material: what NewLayerKeys
// provisions (clients seal boxes) and the paper's RSA-only suite.
var keyMaterials = []struct {
	name    string
	newKeys func() (*proxy.LayerKeys, error)
}{
	{"box", proxy.NewLayerKeys},
	{"rsa-only", proxy.NewRSAOnlyLayerKeys},
}

// provisionedLayers launches and provisions a UA and an IA enclave and
// returns them with one get request as the client library holding the
// key material's bundle would send it.
func provisionedLayers(b *testing.B, newKeys func() (*proxy.LayerKeys, error)) (ua, ia *enclave.Enclave, get []byte) {
	b.Helper()
	as, err := enclave.NewAttestationService()
	if err != nil {
		b.Fatal(err)
	}
	platform := enclave.NewPlatform(as)
	uaKeys, err := newKeys()
	if err != nil {
		b.Fatal(err)
	}
	iaKeys, err := newKeys()
	if err != nil {
		b.Fatal(err)
	}
	ua, ia = proxy.NewUAEnclave(platform), proxy.NewIAEnclave(platform, proxy.IAOptions{})
	if err := uaKeys.Provision(as, ua, proxy.UAIdentity); err != nil {
		b.Fatal(err)
	}
	if err := iaKeys.Provision(as, ia, proxy.IAIdentity); err != nil {
		b.Fatal(err)
	}
	bundle := proxy.Bundle(uaKeys, iaKeys)
	block, _ := ppcrypto.PadID("user-12345")
	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		b.Fatal(err)
	}
	encUser, encKu, err := ppcrypto.SealPair(
		bundle.UAField(ppcrypto.RoleUAUser, block), bundle.IAField(ppcrypto.RoleIATempKey, ku))
	if err != nil {
		b.Fatal(err)
	}
	get, err = message.Marshal(message.GetRequest{
		EncUser:    message.Encode64(encUser),
		EncTempKey: message.Encode64(encKu),
	})
	if err != nil {
		b.Fatal(err)
	}
	return ua, ia, get
}

// BenchmarkEnclave_UAGetEcall is the UA's request-path handler on a
// provisioned enclave, per key material. On rsa-only read it beside
// BenchmarkCrypto_OAEPDecrypt: it is one RSA-OAEP decryption plus framing,
// so ns/op should sit a few per cent above the decryption's and allocs/op
// a small constant above its 7; a handler that parses the layer's PKCS#8
// key per message shows as +62 allocs/op and ~+8 % ns/op. On box read it
// beside BenchmarkCrypto_BoxOpen: the framing is the same, so it is most
// of what is left. The IA's two get-path crossings are
// internal/proxy's BenchmarkIAGetPath: their host↔enclave frames are
// internal to that package.
func BenchmarkEnclave_UAGetEcall(b *testing.B) {
	for _, km := range keyMaterials {
		b.Run(km.name, func(b *testing.B) {
			ua, _, get := provisionedLayers(b, km.newKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ua.Ecall("ua/get", get); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCrypto_Pseudonymize(b *testing.B) {
	key, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppcrypto.Pseudonymize(key, "user-12345"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrypto_ItemListEncryptRoundTrip(b *testing.B) {
	key, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		b.Fatal(err)
	}
	items := make([]string, message.MaxRecommendations)
	for i := range items {
		items[i] = fmt.Sprintf("item-%06d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed, err := message.EncodeItemList(items)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := ppcrypto.SymEncrypt(key, packed)
		if err != nil {
			b.Fatal(err)
		}
		pt, err := ppcrypto.SymDecrypt(key, ct)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := message.DecodeItemList(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRS_CCOTrain(b *testing.B) {
	ds := workload.Generate(workload.ScaledMovieLensParams(0.01))
	events := make([]cco.Event, len(ds.Events))
	for i, ev := range ds.Events {
		events[i] = cco.Event{User: ev.User, Item: ev.Item}
	}
	cfg := cco.DefaultConfig()
	cfg.MaxInteractionsPerUser = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cco.Train(events, cfg)
	}
}

func BenchmarkLRS_SearchQuery(b *testing.B) {
	ix := search.NewIndex()
	for i := 0; i < 5000; i++ {
		terms := make([]string, 20)
		for j := range terms {
			terms[j] = fmt.Sprintf("t%d", (i+j*37)%991)
		}
		ix.Put(search.Doc{ID: fmt.Sprintf("d%d", i), Fields: map[string][]string{"indicators": terms}})
	}
	q := search.Query{Size: 20}
	for j := 0; j < 10; j++ {
		q.Should = append(q.Should, search.TermQuery{Field: "indicators", Term: fmt.Sprintf("t%d", j*101%991)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q)
	}
}

func BenchmarkLRS_EngineRecommend(b *testing.B) {
	e := engine.New(engine.DefaultConfig())
	ds := workload.Generate(workload.ScaledMovieLensParams(0.005))
	for _, ev := range ds.Events {
		e.InsertEvent(ev.User, ev.Item, "")
	}
	if err := e.TrainNow(); err != nil {
		b.Fatal(err)
	}
	users := ds.DistinctUsers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Recommend(users[i%len(users)], message.MaxRecommendations)
	}
}

func BenchmarkWorkload_Generate(b *testing.B) {
	p := workload.ScaledMovieLensParams(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Generate(p)
	}
}

// --- Ablation benchmarks (DESIGN.md §4) ---------------------------------

// BenchmarkAblation_ShuffleTimer quantifies the flush-timer trade-off: a
// sequential (low-traffic) client is always timer-bound, so the op time
// tracks the configured timeout — the latency price of privacy when
// traffic is too thin to fill buffers.
func BenchmarkAblation_ShuffleTimer10ms(b *testing.B) { benchShuffleTimer(b, 10*time.Millisecond) }
func BenchmarkAblation_ShuffleTimer40ms(b *testing.B) { benchShuffleTimer(b, 40*time.Millisecond) }

func benchShuffleTimer(b *testing.B, timeout time.Duration) {
	b.Helper()
	_, cl := deployMicro(b, "m5", func(s *cluster.Spec) {
		s.ShuffleTimeout = timeout
	})
	benchGets(b, cl)
}

// BenchmarkAblation_BodyBuffers measures per-request heap churn on the
// full encrypted proxy path (m3: encryption + SGX, no shuffle). The body
// read on every hop used to be a bare io.ReadAll — one fresh grow-chain
// per message — and is now fed from a pooled buffer: on HTTP hops, at 300
// gets/op on the dev container, io.ReadAll cost 805 allocs/op and
// 131074 B/op, pooled 798 allocs/op and 123965 B/op. Binary frames on
// both hops (DESIGN.md §4h) then took the path from 799 to 647
// allocs/op; the IA→LRS hop is plain REST again, and the pooled read
// serves it and the HTTP client edge.
// Run with: go test -bench Ablation_BodyBuffers -benchmem .
func BenchmarkAblation_BodyBuffers(b *testing.B) {
	_, cl := deployMicro(b, "m3", nil)
	b.ReportAllocs()
	benchGets(b, cl)
}

func BenchmarkLRS_CCOTrainMulti(b *testing.B) {
	ds := workload.Generate(workload.ScaledMovieLensParams(0.01))
	events := make([]cco.TypedEvent, len(ds.Events))
	for i, ev := range ds.Events {
		typ := ""
		if i%2 == 0 {
			typ = "view" // half the stream becomes a secondary indicator
		}
		events[i] = cco.TypedEvent{User: ev.User, Item: ev.Item, Type: typ}
	}
	cfg := cco.DefaultConfig()
	cfg.MaxInteractionsPerUser = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cco.TrainMulti(events, cfg)
	}
}

func BenchmarkEnclave_SecureProvision(b *testing.B) {
	as, err := enclave.NewAttestationService()
	if err != nil {
		b.Fatal(err)
	}
	platform := enclave.NewPlatform(as)
	keys, err := proxy.NewLayerKeys()
	if err != nil {
		b.Fatal(err)
	}
	secrets, err := keys.Secrets()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := proxy.NewUAEnclave(platform)
		if err := enclave.SecureAttestAndProvision(as, e, enclave.Measure(proxy.UAIdentity), secrets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRotation_ReencryptDatabase measures the downtime of the
// breach response: the 562,888-event MovieLens-shaped log, dumped from
// the old LRS in log order, its user pseudonyms mapped to a fresh UA key,
// and replayed event by event through POST /events into a fresh
// incremental, 4-shard, WAL-backed LRS (no fsync) behind its REST
// handler. Run it with -benchtime 1x; it reports the replay's wall time
// and events per second.
func BenchmarkRotation_ReencryptDatabase(b *testing.B) {
	ua, err := proxy.NewLayerKeys()
	if err != nil {
		b.Fatal(err)
	}
	ia, err := proxy.NewLayerKeys()
	if err != nil {
		b.Fatal(err)
	}
	old := engine.New(engine.DefaultConfig())
	pseudonym := func(memo map[string]string, keys *proxy.LayerKeys, id string) string {
		if p, ok := memo[id]; ok {
			return p
		}
		ps, err := keys.PseudonymizeItems([]string{id})
		if err != nil {
			b.Fatal(err)
		}
		memo[id] = ps[0]
		return ps[0]
	}
	users, items := map[string]string{}, map[string]string{}
	for j, ev := range workload.Generate(workload.MovieLensParams()).Events {
		if _, err := old.InsertTypedEventIdem(pseudonym(users, ua, ev.User), pseudonym(items, ia, ev.Item), ev.Rating, "", fmt.Sprintf("%016x", j)); err != nil {
			b.Fatal(err)
		}
	}
	cfg := engine.DefaultConfig()
	cfg.Incremental, cfg.Shards = true, 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg.WALDir = b.TempDir()
		fresh, err := engine.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(engine.NewHandler(fresh))
		b.StartTimer()
		start := time.Now()
		res, err := rotation.RotateKeys(rotation.LayerUA, ua, ia, old.ForEachEvent, rotation.PostTo(srv.Client(), srv.URL))
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		b.StopTimer()
		if res.Replayed != old.EventCount() || fresh.EventCount() != res.Replayed {
			b.Fatalf("replayed %d of %d events, the fresh LRS stores %d", res.Replayed, old.EventCount(), fresh.EventCount())
		}
		b.ReportMetric(elapsed.Seconds(), "replay-s")
		b.ReportMetric(float64(res.Replayed)/elapsed.Seconds(), "events/s")
		srv.Close()
		fresh.Close()
		b.StartTimer()
	}
}
