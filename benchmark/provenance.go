package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Provenance says what was measured, where and how: enough to tell two
// reports of the same commit on the same host from two that are not.
type Provenance struct {
	// GitSHA is the commit the binary was built from: the revision the
	// toolchain stamped, else what git says about the working directory,
	// else "unavailable" (an exported tree has no history to ask).
	GitSHA    string `json:"git_sha"`
	Dirty     bool   `json:"dirty"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	MaxProcs  int    `json:"gomaxprocs"`
	PinnedCPU int    `json:"pinned_cpu"`
	Started   string `json:"started"`

	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        int     `json:"seconds"`
	Trace          bool    `json:"trace"`
	OpenLoop       string  `json:"open_loop"`
	ShuffleSize    int     `json:"shuffle_size,omitempty"`
	ShuffleTimeout string  `json:"shuffle_timeout,omitempty"`
	PostShare      float64 `json:"post_share"`
	SeedEvents     int     `json:"seed_events,omitempty"`
	HeldOutEvents  int     `json:"held_out_events,omitempty"`
	LRSShards      int     `json:"lrs_shards,omitempty"`
	Setups         int     `json:"setups"`
}

func provenance(cfg Config) Provenance {
	w := cfg.Workload
	p := Provenance{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		PinnedCPU: pinnedCPU,
		Started:   time.Now().UTC().Format(time.RFC3339),
		Workload:  w.Name,
		Seed:      cfg.Seed,
		Seconds:   cfg.Seconds,
		Trace:     cfg.Trace,
		PostShare: w.PostShare,
		Setups:    w.Setups,
	}
	p.GitSHA, p.Dirty = gitRevision()
	if w.Burst > 1 {
		p.OpenLoop = fmt.Sprintf("bursts of %d every %v", w.Burst, w.Period)
	} else {
		p.OpenLoop = fmt.Sprintf("one request every %v", w.Period)
	}
	if w.Proxied {
		p.ShuffleSize, p.ShuffleTimeout = shuffleSize, ShuffleTimeout.String()
	}
	if !w.Stub {
		p.SeedEvents, p.HeldOutEvents, p.LRSShards = w.SeedEvents, w.HeldOut, lrsShards
	}
	return p
}

// gitRevision prefers the revision stamped into the binary (go build in a
// git checkout) and falls back to asking git about the working directory
// (go run does not stamp).
func gitRevision() (sha string, dirty bool) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if sha != "" {
		return sha, dirty
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(status) > 0
}
