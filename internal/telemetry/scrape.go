// Package telemetry is the operator's read of a PProx fleet. Every node
// already serves its state on public endpoints — /metrics everywhere,
// /privacy and /perf where the SLO engines run — and this package
// scrapes them: ScrapeNode reads one
// node, Gate turns scrapes into the exit status of an operator check, and
// View folds two rounds of scrapes into the fleet view pprox-ops top
// renders.
//
// Privacy stance: the view is computed from what any /metrics scraper
// already reads — epoch-aggregated counters and histograms, SLO states,
// build identity — so it grants no linking advantage beyond them (the
// adversary suite's telemetry test). Time enters only as the operator's
// own clock between two scrapes.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pprox/internal/audit"
	"pprox/internal/metrics"
	"pprox/internal/perfslo"
)

// Scrape is one read of one node's endpoints.
type Scrape struct {
	// Target is the node's base URL, e.g. "http://127.0.0.1:8081".
	Target string
	// Metrics is the node's /metrics exposition.
	Metrics metrics.ScrapeSet
	// Privacy and Perf are the node's SLO reports; nil when it runs no
	// auditor or no perf evaluator.
	Privacy *audit.Report
	Perf    *perfslo.Report
	// Err is why the read failed: the node counts as down.
	Err error
}

// maxBody bounds one endpoint's body.
const maxBody = 32 << 20

// errNotFound marks a route the node does not serve.
var errNotFound = errors.New("not served")

// ScrapeNode reads target's /metrics and, where that exposition carries
// the engine's series, /privacy (pprox_audit_*) and /perf
// (pprox_perfslo_*). A node without those series gets no probe,
// so a scrape adds nothing to the node's own request histograms. A 404
// on a probed route still means the node does not serve it (in-process
// nodes share one registry, and so each other's series); any other
// failure — a refused dial, a timeout, a 503 — fails the scrape, so an
// SLO that cannot be read never passes for one that is off.
func ScrapeNode(c *http.Client, target string) Scrape {
	s := Scrape{Target: strings.TrimRight(strings.TrimSpace(target), "/")}
	body, err := fetch(c, s.Target+"/metrics")
	if err != nil {
		s.Err = err
		return s
	}
	s.Metrics = metrics.ParseExposition(string(body))
	for _, route := range []struct {
		prefix, path string
		into         any
	}{
		{"pprox_audit_", audit.PrivacyPath, &s.Privacy},
		{"pprox_perfslo_", perfslo.PerfPath, &s.Perf},
	} {
		if !exports(s.Metrics, route.prefix) {
			continue
		}
		body, err := fetch(c, s.Target+route.path)
		if errors.Is(err, errNotFound) {
			continue
		}
		if err == nil {
			if err = json.Unmarshal(body, route.into); err != nil {
				err = fmt.Errorf("decode %s%s: %w", s.Target, route.path, err)
			}
		}
		if err != nil {
			s.Err = err
			return s
		}
	}
	return s
}

// exports reports whether some series of set starts with prefix.
func exports(set metrics.ScrapeSet, prefix string) bool {
	for series := range set {
		if strings.HasPrefix(series, prefix) {
			return true
		}
	}
	return false
}

// ScrapeAll reads every target in order.
func ScrapeAll(c *http.Client, targets []string) []Scrape {
	round := make([]Scrape, len(targets))
	for i, t := range targets {
		round[i] = ScrapeNode(c, t)
	}
	return round
}

func fetch(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return io.ReadAll(io.LimitReader(resp.Body, maxBody))
	case http.StatusNotFound:
		return nil, fmt.Errorf("%s: %w", url, errNotFound)
	default:
		return nil, fmt.Errorf("%s: status %s", url, resp.Status)
	}
}

// Exit statuses of an operator check (pprox-ops top -once and audit).
const (
	ExitOK       = 0
	ExitFailed   = 1 // a scrape failed
	ExitViolated = 3 // a node reads its privacy or perf SLO violated
)

// Gate is the exit status of a check over scrape rounds: ExitFailed when
// any scrape of any round failed, else ExitViolated when a node of the
// last round reads its privacy or perf SLO violated, else ExitOK.
func Gate(rounds ...[]Scrape) int {
	for _, round := range rounds {
		for _, s := range round {
			if s.Err != nil {
				return ExitFailed
			}
		}
	}
	if n := len(rounds); n > 0 {
		for _, s := range rounds[n-1] {
			if violated(s) {
				return ExitViolated
			}
		}
	}
	return ExitOK
}

func violated(s Scrape) bool {
	return (s.Privacy != nil && s.Privacy.State == audit.StateViolated.String()) ||
		(s.Perf != nil && s.Perf.State == perfslo.StateViolated.String())
}
