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
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pprox/internal/obslog"
	"pprox/internal/proxy"
)

func main() {
	out := flag.String("out", ".", "output directory")
	rsaOnly := flag.Bool("rsa-only", false, "write the paper's key material: RSA-2048-OAEP, no X25519 box key")
	flag.Parse()

	if err := run(*out, *rsaOnly); err != nil {
		obslog.New(os.Stderr, "pprox-keygen", nil).Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func run(out string, rsaOnly bool) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
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
