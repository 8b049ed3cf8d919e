package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"pprox/internal/hopwire"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/transport"
)

// timeUs runs fn n times back to back and returns the mean microseconds
// per call and the mean heap allocations per call. These are isolated
// calls: one goroutine, nothing else running, after the measured window.
func timeUs(n int, fn func(i int) error) (us, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n) / float64(time.Microsecond),
		float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// timeInto is timeUs for the common case: the mean goes to out[name].
func timeInto(out map[string]float64, name string, n int, fn func(i int) error) error {
	us, _, err := timeUs(n, fn)
	out[name] = us
	return err
}

// Micro measures single layers in isolation, through their public
// functions, on inputs taken from the workload that just ran. Layers the
// workload's deployment does not have are left out (their metrics stay
// zero). scale multiplies every loop count; a run uses 10.
func (e *Env) Micro(scale int, out map[string]float64) error {
	if e.w.Proxied {
		if err := e.microCrypto(scale, out); err != nil {
			return fmt.Errorf("ppcrypto: %w", err)
		}
		if err := e.microFrame(scale, out); err != nil {
			return fmt.Errorf("message/hopwire: %w", err)
		}
	}
	if !e.w.Stub {
		if err := e.microLRS(scale, out); err != nil {
			return fmt.Errorf("lrs: %w", err)
		}
	}
	return nil
}

func (e *Env) microCrypto(scale int, out map[string]float64) error {
	keys := e.d.UAKeys
	block, err := ppcrypto.PadID("bench-user-000001")
	if err != nil {
		return err
	}
	var cts [][]byte
	if err := timeInto(out, "ppcrypto.oaep_encrypt_us", 10*scale, func(int) error {
		ct, err := ppcrypto.EncryptOAEP(keys.Pair.Public, block)
		cts = append(cts, ct)
		return err
	}); err != nil {
		return err
	}
	us, allocs, err := timeUs(10*scale, func(i int) error {
		_, err := ppcrypto.DecryptOAEP(keys.Pair.Private, cts[i])
		return err
	})
	if err != nil {
		return err
	}
	out["ppcrypto.oaep_decrypt_us"], out["ppcrypto.oaep_decrypt_allocs"] = us, allocs
	if err := timeInto(out, "ppcrypto.pseudonymize_us", 200*scale, func(i int) error {
		_, err := ppcrypto.Pseudonymize(keys.Permanent, fmt.Sprintf("bench-user-%06d", i))
		return err
	}); err != nil {
		return err
	}
	// The response list as the IA re-encrypts it under the client's
	// temporary key: a full page of item names.
	names := make([]string, message.MaxRecommendations)
	for i := range names {
		names[i] = fmt.Sprintf("ml-movie-%06d", i)
	}
	packed, err := message.EncodeItemList(names)
	if err != nil {
		return err
	}
	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		return err
	}
	return timeInto(out, "ppcrypto.sym_encrypt_us", 200*scale, func(int) error {
		_, err := ppcrypto.SymEncrypt(ku, packed)
		return err
	})
}

// microFrame times the frame codec on the UA→IA batch frame captured
// from the traced window and an echo of that frame over a hopwire
// connection on a private in-memory network.
func (e *Env) microFrame(scale int, out map[string]float64) error {
	frame := e.tracer.Frame()
	if frame == nil {
		return fmt.Errorf("no batch frame was captured")
	}
	epoch, entries, err := message.UnmarshalBatchEpoch(frame)
	if err != nil {
		return err
	}
	// UnmarshalBatchEpoch aliases the frame; the encoder below must not
	// write over its own input.
	for i := range entries {
		entries[i].Body = append([]byte(nil), entries[i].Body...)
	}
	out["message.frame_bytes_per_req"] = float64(len(frame)) / float64(len(entries))
	us, allocs, err := timeUs(200*scale, func(int) error {
		_, err := message.MarshalBatchEpoch(nil, epoch, entries)
		return err
	})
	if err != nil {
		return err
	}
	out["message.frame_encode_us_per_epoch"], out["message.frame_encode_allocs"] = us, allocs
	if err := timeInto(out, "message.frame_decode_us_per_epoch", 200*scale, func(int) error {
		_, _, err := message.UnmarshalBatchEpoch(frame)
		return err
	}); err != nil {
		return err
	}

	net := transport.NewNetwork()
	defer net.Close()
	l, err := net.Listen("echo")
	if err != nil {
		return err
	}
	shutdown := hopwire.ServeHTTPAndFrames(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(w, r.Body)
	}))
	defer shutdown()
	hc, err := hopwire.NewClient(net, "http://echo")
	if err != nil {
		return err
	}
	defer hc.Close()
	ctx := context.Background()
	return timeInto(out, "hopwire.roundtrip_us", 100*scale, func(int) error {
		status, body, err := hc.RoundTrip(ctx, message.BatchPath, frame)
		if err == nil && (status != http.StatusOK || !bytes.Equal(body, frame)) {
			err = fmt.Errorf("echo returned status %d, %d bytes", status, len(body))
		}
		return err
	})
}

// microLRS times the engine's two entry points on the live seeded engine
// and the event store on a fresh in-memory log of the same shape.
func (e *Env) microLRS(scale int, out map[string]float64) error {
	eng := e.d.Engine
	ids := make([]string, 20*scale)
	memo := map[string]string{}
	for i := range ids {
		ids[i] = e.users[(i*7919)%len(e.users)]
		if e.w.Proxied {
			var err error
			if ids[i], err = pseudonym(memo, e.d.UAKeys.Permanent, ids[i]); err != nil {
				return err
			}
		}
	}
	if err := timeInto(out, "lrs.engine.recommend_us", len(ids), func(i int) error {
		eng.Recommend(ids[i], message.MaxRecommendations)
		return nil
	}); err != nil {
		return err
	}
	items := make([]string, len(ids))
	for i := range items {
		items[i] = e.posts[(e.nextPost+i)%len(e.posts)].Item
		if e.w.Proxied {
			var err error
			if items[i], err = pseudonym(memo, e.d.IAKeys.Permanent, items[i]); err != nil {
				return err
			}
		}
	}
	if err := timeInto(out, "lrs.engine.insert_us", len(ids), func(i int) error {
		_, err := eng.InsertTypedEventIdem(ids[i], items[i], "4.0", "", "")
		if err == nil {
			e.seeded++ // keep Audit's event accounting whole
		}
		return err
	}); err != nil {
		return err
	}

	log, err := store.OpenShardedLog(store.ShardedConfig{Shards: lrsShards, IndexFields: []string{"user"}})
	if err != nil {
		return err
	}
	defer log.Close()
	if err := timeInto(out, "lrs.store.insert_us", 200*scale, func(i int) error {
		ev := e.posts[i%len(e.posts)]
		_, err := log.Insert(map[string]string{"user": ev.User, "item": ev.Item, "payload": ev.Rating, "type": ""})
		return err
	}); err != nil {
		return err
	}
	return timeInto(out, "lrs.store.findby_us", 200*scale, func(i int) error {
		log.FindBy("user", e.posts[i%len(e.posts)].User)
		return nil
	})
}
