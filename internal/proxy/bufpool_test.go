package proxy

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Regression: readBody used a bare io.LimitReader(r, limit), so an
// oversized body was silently cut at limit bytes and handed downstream as
// if well-formed. It must be rejected with ErrBodyTooLarge instead.
func TestReadBodyRejectsOversized(t *testing.T) {
	limit := int64(64)

	if _, err := readBody(strings.NewReader(strings.Repeat("x", int(limit)+1)), limit); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("oversized body: got err %v, want ErrBodyTooLarge", err)
	}

	// Exactly at the limit is fine — the +1 probe byte must not turn the
	// boundary case into a rejection.
	want := strings.Repeat("y", int(limit))
	got, err := readBody(strings.NewReader(want), limit)
	if err != nil {
		t.Fatalf("at-limit body: %v", err)
	}
	if string(got) != want {
		t.Fatalf("at-limit body: got %d bytes, want %d", len(got), len(want))
	}

	if _, err := readBody(strings.NewReader("short"), limit); err != nil {
		t.Fatalf("short body: %v", err)
	}
}

// Oversized request bodies must surface as 413 at the handler, not decode
// truncated garbage (handle) or a truncated envelope (handleBatch).
func TestHandlersReject413OnOversizedBody(t *testing.T) {
	// The forward client is never reached: the read rejects first.
	l, err := New(Config{
		Role:        RoleUA,
		PassThrough: true,
		Next:        "http://next",
		Dialer:      testDialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	body := bytes.Repeat([]byte("a"), maxBody+1)
	req := httptest.NewRequest(http.MethodPost, "/events", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("/events oversized: got status %d, want 413", rec.Code)
	}
}

// readBody must not confuse a reader error with overflow.
func TestReadBodyPropagatesReadError(t *testing.T) {
	wantErr := errors.New("boom")
	r := io.MultiReader(strings.NewReader("abc"), &errReader{err: wantErr})
	if _, err := readBody(r, 1<<10); !errors.Is(err, wantErr) {
		t.Fatalf("got err %v, want %v", err, wantErr)
	}
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }
