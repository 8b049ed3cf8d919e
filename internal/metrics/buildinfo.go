package metrics

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies the running binary: module version, Go toolchain,
// and the VCS revision the binary was built from. The pprox_build_info
// gauge and every telemetry snapshot carry it, so a scraped histogram and
// a fleet rollup are attributable to the same commit.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	GitSHA    string `json:"git_sha"`
}

// ReadBuildInfo extracts the binary's build identity from the embedded
// module info. Fields the build did not stamp (e.g. `go run` without VCS
// metadata) come back as "unknown" rather than empty, so label values and
// JSON fields stay grep-able.
func ReadBuildInfo() BuildInfo {
	bi := BuildInfo{
		Version:   "unknown",
		GoVersion: runtime.Version(),
		GitSHA:    "unknown",
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if v := info.Main.Version; v != "" {
		bi.Version = v
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			bi.GitSHA = s.Value
		}
	}
	return bi
}

// RegisterBuildInfo exposes the standard build-identity gauge
//
//	pprox_build_info{version,go_version,git_sha} 1
//
// on the registry. Every binary registers it so any scrape — operator,
// bench emitter, CI artifact — carries the commit it measured.
func RegisterBuildInfo(r *Registry) {
	bi := ReadBuildInfo()
	r.GaugeVec("pprox_build_info",
		"Build identity of this binary; value is always 1.",
		"version", "go_version", "git_sha").
		With(func() float64 { return 1 }, bi.Version, bi.GoVersion, bi.GitSHA)
}
