// Command pprox-keygen generates the key material of a PProx deployment
// as the RaaS *client application* would (§4.1): an RSA-2048 key pair, an
// X25519 sealed-box key and a permanent pseudonymization key per proxy
// layer, plus the public bundle embedded in the user-side library.
//
//	pprox-keygen -out ./keys
//
// writes keys.json (both layers, secret — provisioned to attested
// enclaves only) and bundle.json (public keys only — safe to ship as
// static web code). Clients holding this bundle seal boxes; bundles from
// older key files (RSA only) keep working against the same proxies.
//
//	pprox-keygen -out ./keys -rsa-only
//
// writes paper-faithful key files: RSA-2048-OAEP and no box key, the suite
// the paper measured.
//
//	pprox-keygen rotate -layer ua -keys ./keys/keys.json -wal-dir ./lrs-wal \
//	    -lrs http://fresh-lrs:8080 -out ./keys-new
//
// is the breach response (§2.3, footnote 1) on a drained deployment: it
// reads the old LRS's state (-wal-dir or -snapshot, as pprox-lrs was
// started with), maps the leaked layer's pseudonyms to a fresh key,
// replays every event into the fresh, empty pprox-lrs at -lrs, and only
// then writes the new keys.json and bundle.json. Both layers get a fresh
// link key. Provision fresh enclaves of both layers from the new files and
// point the IA at the fresh LRS.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pprox/internal/lrs/store"
	"pprox/internal/obslog"
	"pprox/internal/proxy"
	"pprox/internal/rotation"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "rotate" {
		err = rotate(os.Args[2:])
	} else {
		out := flag.String("out", ".", "output directory")
		rsaOnly := flag.Bool("rsa-only", false, "write the paper's key material: RSA-2048-OAEP, no X25519 box key")
		flag.Parse()
		err = run(*out, *rsaOnly)
	}
	if err != nil {
		obslog.New(os.Stderr, "pprox-keygen", nil).Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func run(out string, rsaOnly bool) error {
	newKeys := proxy.NewLayerKeys
	if rsaOnly {
		newKeys = proxy.NewRSAOnlyLayerKeys
	}
	ua, err := newKeys()
	if err != nil {
		return err
	}
	ia, err := newKeys()
	if err != nil {
		return err
	}
	// The shared link key lets the UA wrap the UA→IA hop in a randomized
	// envelope, so a retried request can be re-encrypted with a fresh IV
	// and is unlinkable to the attempt it repeats.
	if err := proxy.PairLinkKey(ua, ia); err != nil {
		return err
	}
	return writeKeys(out, ua, ia)
}

// writeKeys writes keys.json and bundle.json into out.
func writeKeys(out string, ua, ia *proxy.LayerKeys) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	keys, err := proxy.MarshalKeyFile(ua, ia)
	if err != nil {
		return err
	}
	keysPath := filepath.Join(out, "keys.json")
	if err := os.WriteFile(keysPath, keys, 0o600); err != nil {
		return err
	}

	bundle, err := proxy.MarshalBundleFile(proxy.Bundle(ua, ia))
	if err != nil {
		return err
	}
	bundlePath := filepath.Join(out, "bundle.json")
	if err := os.WriteFile(bundlePath, bundle, 0o644); err != nil {
		return err
	}

	fmt.Printf("wrote %s (secret: provision to attested enclaves only)\n", keysPath)
	fmt.Printf("wrote %s (public: embed in the user-side library)\n", bundlePath)
	return nil
}

// rotate runs the rotate subcommand.
func rotate(args []string) error {
	fs := flag.NewFlagSet("rotate", flag.ContinueOnError)
	layerName := fs.String("layer", "", "the breached layer whose keys rotate: ua or ia")
	keysPath := fs.String("keys", "keys.json", "the deployment's current keys.json")
	walDir := fs.String("wal-dir", "", "the old LRS's -wal-dir, read and left unchanged")
	snapshot := fs.String("snapshot", "", "the old LRS's -snapshot file, when it ran without -wal-dir")
	lrsURL := fs.String("lrs", "", "base URL of the fresh, empty pprox-lrs the events are replayed into")
	out := fs.String("out", ".", "output directory for the new keys.json and bundle.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var layer rotation.Layer
	switch *layerName {
	case "ua":
		layer = rotation.LayerUA
	case "ia":
		layer = rotation.LayerIA
	default:
		return fmt.Errorf("rotate: -layer must be ua or ia, not %q", *layerName)
	}
	if *lrsURL == "" {
		return errors.New("rotate: -lrs is required")
	}
	data, err := os.ReadFile(*keysPath)
	if err != nil {
		return err
	}
	ua, ia, err := proxy.UnmarshalKeyFile(data)
	if err != nil {
		return fmt.Errorf("%s: %w", *keysPath, err)
	}
	log, err := openOldLog(*walDir, *snapshot)
	if err != nil {
		return err
	}
	defer log.Close()

	events := func(fn func(store.Document)) {
		log.ScanOrdered(func(d store.Document) bool {
			fn(d)
			return true
		})
	}
	start := time.Now()
	res, err := rotation.RotateKeys(layer, ua, ia, events,
		rotation.PostTo(&http.Client{Timeout: 10 * time.Second}, *lrsURL))
	if err != nil {
		return err
	}
	fmt.Printf("rotated the %v layer: %d events replayed into %s in %s\n",
		layer, res.Replayed, *lrsURL, time.Since(start).Round(time.Millisecond))
	return writeKeys(*out, res.UA, res.IA)
}

// openOldLog loads the old LRS's event log as pprox-lrs loads it: the
// per-shard snapshot and WAL files under walDir, or the snapshot file.
// Every shard under walDir is read, whatever -shards the LRS ran with. A
// clean directory is left byte-for-byte unchanged; only a torn WAL tail (a
// crash mid-append) is cut, as pprox-lrs would cut it on its next start.
func openOldLog(walDir, snapshot string) (*store.ShardedLog, error) {
	switch {
	case (walDir == "") == (snapshot == ""):
		return nil, errors.New("rotate: give exactly one of -wal-dir and -snapshot")
	case walDir != "":
		shards := 0
		for _, pattern := range []string{"shard-*.wal", "shard-*.snap"} {
			files, err := filepath.Glob(filepath.Join(walDir, pattern))
			if err != nil {
				return nil, err
			}
			for _, f := range files {
				var id int
				if _, err := fmt.Sscanf(filepath.Base(f), "shard-%d.", &id); err == nil && id >= shards {
					shards = id + 1
				}
			}
		}
		if shards == 0 {
			return nil, fmt.Errorf("rotate: no LRS shard files in %s", walDir)
		}
		return store.OpenShardedLog(store.ShardedConfig{Shards: shards, Dir: walDir})
	default:
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		log, err := store.OpenShardedLog(store.ShardedConfig{})
		if err != nil {
			return nil, err
		}
		if err := log.Restore(f); err != nil {
			return nil, fmt.Errorf("load snapshot %s: %w", snapshot, err)
		}
		return log, nil
	}
}
