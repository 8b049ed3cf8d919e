package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
)

// Shared key material: RSA generation is slow and the tests only need any
// valid pair per layer.
var (
	bundleOnce sync.Once
	sharedUA   *proxy.LayerKeys
	sharedIA   *proxy.LayerKeys
	bundleErr  error
)

func testBundle(t *testing.T) (proxy.PublicBundle, *proxy.LayerKeys, *proxy.LayerKeys) {
	t.Helper()
	bundleOnce.Do(func() {
		if sharedUA, bundleErr = proxy.NewLayerKeys(); bundleErr != nil {
			return
		}
		sharedIA, bundleErr = proxy.NewLayerKeys()
	})
	if bundleErr != nil {
		t.Fatal(bundleErr)
	}
	return proxy.Bundle(sharedUA, sharedIA), sharedUA, sharedIA
}

// eachBundleKind runs fn against the two kinds of bundle a client can hold
// for one and the same layer key material: the one this version mints (box
// keys present, so every field is a sealed box) and an RSA-only one still
// in the field. fieldSize is what enc_user must measure under that kind.
func eachBundleKind(t *testing.T, fn func(t *testing.T, bundle proxy.PublicBundle, fieldSize int)) {
	bundle, _, _ := testBundle(t)
	t.Run("box", func(t *testing.T) { fn(t, bundle, ppcrypto.IDBlockSize+ppcrypto.BoxOverhead) })
	bundle.UABox, bundle.IABox = nil, nil
	t.Run("rsa-only", func(t *testing.T) { fn(t, bundle, ppcrypto.RSACiphertextSize) })
}

// openField decrypts a field as the layer's enclave would: by the key its
// length names.
func openField(keys *proxy.LayerKeys, role ppcrypto.Role, field string) ([]byte, error) {
	ct, err := message.Decode64(field)
	if err != nil {
		return nil, err
	}
	if len(ct) == ppcrypto.RSACiphertextSize {
		return ppcrypto.DecryptOAEP(keys.Pair.Private, ct)
	}
	return ppcrypto.OpenBox(keys.Box, role, ct)
}

// boxPointSize is the X25519 ephemeral point every box starts with.
const boxPointSize = 32

func fieldSize(t *testing.T, field string) int {
	t.Helper()
	ct, err := message.Decode64(field)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return len(ct)
}

func TestPostEncryptsBothIdentifiers(t *testing.T) {
	eachBundleKind(t, testPostEncryptsBothIdentifiers)
}

func testPostEncryptsBothIdentifiers(t *testing.T, bundle proxy.PublicBundle, wantSize int) {
	_, ua, ia := testBundle(t)
	var got message.PostRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != message.EventsPath {
			t.Errorf("path = %s", r.URL.Path)
		}
		if err := message.Unmarshal(readAll(t, r), &got); err != nil {
			t.Errorf("unmarshal: %v", err)
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	c := New(bundle, srv.Client(), srv.URL)
	if err := c.Post(context.Background(), "alice", "casablanca", "5"); err != nil {
		t.Fatal(err)
	}

	// Neither identifier travels in the clear.
	if strings.Contains(got.EncUser, "alice") || strings.Contains(got.EncItem, "casablanca") {
		t.Error("cleartext identifier on the wire")
	}
	if got.Payload != "5" {
		t.Errorf("payload = %q", got.Payload)
	}
	// Each field decrypts only with its layer's private key.
	assertDecryptsTo(t, ua, ppcrypto.RoleUAUser, got.EncUser, "alice")
	assertDecryptsTo(t, ia, ppcrypto.RoleIAItem, got.EncItem, "casablanca")
	if _, err := openField(ia, ppcrypto.RoleUAUser, got.EncUser); err == nil {
		t.Error("IA key decrypted the user field")
	}
	// The bundle's keys alone chose the suite, for both fields alike: a
	// bundle with box keys never emits an RSA-sized field.
	if u, i := fieldSize(t, got.EncUser), fieldSize(t, got.EncItem); u != wantSize || i != wantSize {
		t.Errorf("enc_user is %d bytes and enc_item %d, want %d each", u, i, wantSize)
	}
}

func assertDecryptsTo(t *testing.T, keys *proxy.LayerKeys, role ppcrypto.Role, field, want string) {
	t.Helper()
	block, err := openField(keys, role, field)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	id, err := ppcrypto.UnpadID(block)
	if err != nil {
		t.Fatalf("unpad: %v", err)
	}
	if id != want {
		t.Errorf("decrypted %q, want %q", id, want)
	}
}

func TestGetGeneratesFreshTempKeys(t *testing.T) {
	bundle, _, _ := testBundle(t)
	var keys []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req message.GetRequest
		if err := message.Unmarshal(readAll(t, r), &req); err != nil {
			t.Errorf("unmarshal: %v", err)
		}
		keys = append(keys, req.EncTempKey)
		http.Error(w, "no model", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := New(bundle, srv.Client(), srv.URL)
	for i := 0; i < 2; i++ {
		if _, err := c.Get(context.Background(), "u"); !errors.Is(err, ErrServiceStatus) {
			t.Fatalf("err = %v, want ErrServiceStatus", err)
		}
	}
	if len(keys) != 2 || keys[0] == keys[1] {
		t.Error("temporary key reused across get requests")
	}
}

func TestGetDecryptsAndDiscardsPadding(t *testing.T) {
	eachBundleKind(t, testGetDecryptsAndDiscardsPadding)
}

func testGetDecryptsAndDiscardsPadding(t *testing.T, bundle proxy.PublicBundle, wantSize int) {
	_, _, ia := testBundle(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req message.GetRequest
		if err := message.Unmarshal(readAll(t, r), &req); err != nil {
			t.Errorf("unmarshal: %v", err)
		}
		// Act as UA+IA+LRS in one: recover k_u and answer with an
		// encrypted, padded 3-item list.
		if n := fieldSize(t, req.EncUser); n != wantSize {
			t.Errorf("enc_user is %d bytes, want %d", n, wantSize)
		}
		ku, err := openField(ia, ppcrypto.RoleIATempKey, req.EncTempKey)
		if err != nil {
			t.Errorf("decrypt temp key: %v", err)
			return
		}
		packed, err := message.EncodeItemList([]string{"i1", "i2", "i3"})
		if err != nil {
			t.Error(err)
			return
		}
		enc, err := ppcrypto.SymEncrypt(ku, packed)
		if err != nil {
			t.Error(err)
			return
		}
		body, _ := message.Marshal(message.GetResponse{EncItems: message.Encode64(enc)})
		w.Write(body)
	}))
	defer srv.Close()

	c := New(bundle, srv.Client(), srv.URL)
	items, err := c.Get(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || items[0] != "i1" || items[2] != "i3" {
		t.Errorf("items = %v, want the 3 real items with padding discarded", items)
	}
}

func TestGetRejectsTamperedResponse(t *testing.T) {
	bundle, _, _ := testBundle(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := message.Marshal(message.GetResponse{EncItems: message.Encode64([]byte("garbage-ciphertext-far-too-short-to-be-a-list"))})
		w.Write(body)
	}))
	defer srv.Close()

	c := New(bundle, srv.Client(), srv.URL)
	if _, err := c.Get(context.Background(), "u"); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("err = %v, want ErrBadResponse", err)
	}
}

func TestPostErrorStatus(t *testing.T) {
	bundle, _, _ := testBundle(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := New(bundle, srv.Client(), srv.URL)
	if err := c.Post(context.Background(), "u", "i", ""); !errors.Is(err, ErrServiceStatus) {
		t.Fatalf("err = %v, want ErrServiceStatus", err)
	}
}

func TestPlainClientRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case message.EventsPath:
			var req message.LRSPost
			if err := message.Unmarshal(readAll(t, r), &req); err != nil || req.User != "u" || req.Item != "i" {
				t.Errorf("plain post = %+v err=%v", req, err)
			}
			w.Write([]byte(`{"status":"ok"}`))
		case message.QueriesPath:
			body, _ := message.Marshal(message.LRSGetResponse{Items: []string{"a", "b"}})
			w.Write(body)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := NewPlain(srv.Client(), srv.URL)
	if err := c.Post(context.Background(), "u", "i", ""); err != nil {
		t.Fatal(err)
	}
	items, err := c.Get(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0] != "a" {
		t.Errorf("items = %v", items)
	}
}

func TestIdentifierTooLongSurfacesError(t *testing.T) {
	bundle, _, _ := testBundle(t)
	c := New(bundle, nil, "http://unused")
	long := strings.Repeat("x", 100)
	if err := c.Post(context.Background(), long, "i", ""); err == nil {
		t.Error("oversized user identifier accepted")
	}
	if _, err := c.Get(context.Background(), long); err == nil {
		t.Error("oversized user identifier accepted on get")
	}
}

func readAll(t *testing.T, r *http.Request) []byte {
	t.Helper()
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return body
}

func TestGetRetriesAreFreshlyEncrypted(t *testing.T) {
	eachBundleKind(t, testGetRetriesAreFreshlyEncrypted)
}

func testGetRetriesAreFreshlyEncrypted(t *testing.T, bundle proxy.PublicBundle, fieldSize int) {
	_, _, ia := testBundle(t)
	var mu sync.Mutex
	var seen [][2][]byte // each request's two fields, decoded
	fails := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req message.GetRequest
		if r.URL.Path == message.EventsPath {
			var post message.PostRequest
			if err := message.Unmarshal(readAll(t, r), &post); err != nil {
				t.Errorf("unmarshal post: %v", err)
				return
			}
			req = message.GetRequest{EncUser: post.EncUser, EncTempKey: post.EncItem}
		} else if err := message.Unmarshal(readAll(t, r), &req); err != nil {
			t.Errorf("unmarshal: %v", err)
			return
		}
		user, err1 := message.Decode64(req.EncUser)
		other, err2 := message.Decode64(req.EncTempKey)
		if err1 != nil || err2 != nil {
			t.Errorf("decode fields: %v %v", err1, err2)
			return
		}
		mu.Lock()
		seen = append(seen, [2][]byte{user, other})
		fail := fails > 0 && r.URL.Path == message.QueriesPath
		if fail {
			fails--
		}
		mu.Unlock()
		if fail {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == message.EventsPath {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		ku, err := openField(ia, ppcrypto.RoleIATempKey, req.EncTempKey)
		if err != nil {
			t.Errorf("decrypt temp key: %v", err)
			return
		}
		packed, _ := message.EncodeItemList([]string{"i1"})
		enc, _ := ppcrypto.SymEncrypt(ku, packed)
		body, _ := message.Marshal(message.GetResponse{EncItems: message.Encode64(enc)})
		w.Write(body)
	}))
	defer srv.Close()

	c := New(bundle, srv.Client(), srv.URL).WithGetRetries(3)
	items, err := c.Get(context.Background(), "u")
	if err != nil {
		t.Fatalf("get with retries: %v", err)
	}
	if len(items) != 1 || items[0] != "i1" {
		t.Errorf("items = %v", items)
	}
	// Then two concurrent gets of the same user and a post of theirs.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(post bool) {
			defer wg.Done()
			var err error
			if post {
				err = c.Post(context.Background(), "u", "i1", "")
			} else {
				_, err = c.Get(context.Background(), "u")
			}
			if err != nil {
				t.Errorf("concurrent request (post %t): %v", post, err)
			}
		}(i == 2)
	}
	wg.Wait()

	// Every attempt and every request is a completely fresh encryption.
	// On boxes the ephemeral point is what would link them: a request's
	// two fields share one, and no point may recur across the three
	// attempts, the concurrent gets and the post — a reused point with a
	// fresh k_u would still differ as a whole ciphertext.
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 6 {
		t.Fatalf("server saw %d requests, want 3 attempts + 2 gets + 1 post", len(seen))
	}
	var blobs [][]byte
	for i, fields := range seen {
		if len(fields[0]) != fieldSize {
			t.Errorf("request %d: enc_user is %d bytes, want %d", i, len(fields[0]), fieldSize)
		}
		if fieldSize == ppcrypto.RSACiphertextSize {
			if len(fields[1]) != ppcrypto.RSACiphertextSize {
				t.Errorf("request %d: IA field is %d bytes, want an OAEP block", i, len(fields[1]))
			}
			blobs = append(blobs, fields[0], fields[1])
			continue
		}
		point := fields[0][:boxPointSize]
		if !bytes.Equal(point, fields[1][:boxPointSize]) {
			t.Errorf("request %d: its two boxes carry different ephemeral points", i)
		}
		blobs = append(blobs, point)
	}
	for i := 1; i < len(blobs); i++ {
		for j := 0; j < i; j++ {
			if bytes.Equal(blobs[i], blobs[j]) {
				t.Errorf("two requests share an ephemeral point or ciphertext (%d, %d)", j, i)
			}
		}
	}
}

// TestOneKeyForBothLayersFailsClosed: a bundle whose layers share a key
// would let that layer read both fields; the library refuses to seal and
// sends nothing.
func TestOneKeyForBothLayersFailsClosed(t *testing.T) {
	eachBundleKind(t, func(t *testing.T, bundle proxy.PublicBundle, _ int) {
		bundle.IAPublic, bundle.IABox = bundle.UAPublic, bundle.UABox
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { calls.Add(1) }))
		defer srv.Close()
		c := New(bundle, srv.Client(), srv.URL)
		if _, err := c.Get(context.Background(), "u"); !errors.Is(err, ppcrypto.ErrSameRecipient) {
			t.Errorf("get: err %v, want ErrSameRecipient", err)
		}
		if err := c.Post(context.Background(), "u", "i", ""); !errors.Is(err, ppcrypto.ErrSameRecipient) {
			t.Errorf("post: err %v, want ErrSameRecipient", err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("%d requests reached the service", n)
		}
	})
}

func TestPostNeverRetries(t *testing.T) {
	bundle, _, _ := testBundle(t)
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	// Even with get retries armed, a failing post makes exactly one
	// attempt: the client cannot mint the idempotency key that makes a
	// post retry safe (see WithGetRetries).
	c := New(bundle, srv.Client(), srv.URL).WithGetRetries(3)
	if err := c.Post(context.Background(), "u", "i", ""); !errors.Is(err, ErrServiceStatus) {
		t.Fatalf("err = %v, want service status error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("server saw %d post attempts, want 1", calls)
	}
}

func TestGetDoesNotRetryBadRequests(t *testing.T) {
	bundle, _, _ := testBundle(t)
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, "malformed", http.StatusBadRequest)
	}))
	defer srv.Close()

	c := New(bundle, srv.Client(), srv.URL).WithGetRetries(3)
	if _, err := c.Get(context.Background(), "u"); !errors.Is(err, ErrServiceStatus) {
		t.Fatalf("err = %v, want service status error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("server saw %d attempts for a 400, want 1 (not retryable)", calls)
	}
}

// TestEncItemsMirrorsAppendGetResponse: the client reads a GetResponse as
// message.Marshal (and so the IA enclave's appendGetResponse) renders it,
// and refuses every other body.
func TestEncItemsMirrorsAppendGetResponse(t *testing.T) {
	for _, ct := range [][]byte{{}, {0}, bytes.Repeat([]byte{0xfb, 0xff}, 40)} {
		body, err := message.Marshal(message.GetResponse{EncItems: message.Encode64(ct)})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := encItems(body); err != nil || !bytes.Equal(got, ct) {
			t.Errorf("encItems(%s) = %x, %v; want %x", body, got, err, ct)
		}
	}
	for _, body := range []string{``, `{"enc_items":"`, `{"enc_items":"!!"}`, `{ "enc_items":"AA==" }`, `[]`} {
		if _, err := encItems([]byte(body)); err == nil {
			t.Errorf("encItems(%q) succeeded", body)
		}
	}
}
