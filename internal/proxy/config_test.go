package proxy

import (
	"net"
	"net/http"
	"testing"
)

// testDialer is the dialer of layers built in this package's tests.
var testDialer = &net.Dialer{}

// Regression: a Layer built without an HTTP client used to fall back to
// http.DefaultClient, which has no timeout — one hung next hop would pin a
// request goroutine forever. Each role's client must be the bounded
// transport client, and only a UA holds a frame client.
func TestNewDefaultsToBoundedClient(t *testing.T) {
	for _, role := range []Role{RoleUA, RoleIA} {
		l, err := New(Config{Role: role, PassThrough: true, Next: "http://next", Dialer: testDialer})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if l.http == http.DefaultClient {
			t.Fatalf("%v: New fell back to the unbounded http.DefaultClient", role)
		}
		if l.http.Timeout <= 0 {
			t.Errorf("%v: HTTP client has no overall timeout", role)
		}
		// The UA sends frames to the IA; the IA posts to the LRS over HTTP.
		if hasHop := l.Hopwire() != nil; hasHop != (role == RoleUA) {
			t.Errorf("%v: frame client held = %v", role, hasHop)
		}
	}
}

// Without a resilience policy a layer makes exactly one attempt and arms
// no breaker — the seed behaviour, so existing deployments see no retries
// they did not ask for.
func TestNewWithoutPolicyIsSingleAttempt(t *testing.T) {
	l, err := New(Config{Role: RoleIA, PassThrough: true, Next: "http://next", Dialer: testDialer})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.policy.MaxAttempts != 1 {
		t.Errorf("MaxAttempts = %d without a policy, want 1", l.policy.MaxAttempts)
	}
	if l.Breaker() != nil {
		t.Error("breaker armed without a policy")
	}
}
