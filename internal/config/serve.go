package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"time"
)

// ServeDoc is the JSON configuration of the `poiesis serve` service — the
// operational knobs, as opposed to Document's planning knobs. Every field is
// optional; CLI flags given explicitly override the document. The storeDir
// key enables the crash-safe disk session store: sessions are snapshotted
// under the directory and restored on restart.
type ServeDoc struct {
	// Addr is the listen address (HOST:PORT).
	Addr string `json:"addr,omitempty"`
	// StoreDir persists sessions as crash-safe JSON snapshots under this
	// directory. Empty keeps the in-memory store (sessions die with the
	// process).
	StoreDir string `json:"storeDir,omitempty"`
	// SessionTTL evicts sessions idle longer than this (Go duration string,
	// e.g. "45m"). "0" disables eviction.
	SessionTTL string `json:"sessionTTL,omitempty"`
	// MaxSessions caps live sessions.
	MaxSessions int `json:"maxSessions,omitempty"`
	// CacheEntries bounds the plan cache entry count (secondary bound).
	CacheEntries int `json:"cacheEntries,omitempty"`
	// CacheMB is the plan cache byte budget in MiB.
	CacheMB int `json:"cacheMB,omitempty"`
	// Drain is the graceful-shutdown budget (Go duration string).
	Drain string `json:"drain,omitempty"`
	// NodeID names this replica within the cluster's peer list; required
	// when Peers is set (the -node-id flag overrides it).
	NodeID string `json:"nodeID,omitempty"`
	// Peers is the static cluster membership, node ID → base URL (including
	// this replica's own entry). Setting it turns the server into a
	// shard-aware replica: sessions route to the replica their ID hashes
	// to, and the plan cache gains a shared tier. Every replica must be
	// started with an identical membership.
	Peers map[string]string `json:"peers,omitempty"`
}

// ParseServe decodes a serve configuration document. Unknown keys are
// rejected — an operational config with a typo ("storeDirs") must fail
// loudly, not silently run with defaults — and duration strings are
// validated here so mistakes surface at startup rather than mid-flight.
func ParseServe(b []byte) (*ServeDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var d ServeDoc
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("config: serve document: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("config: serve document: trailing data after the configuration object")
	}
	if _, err := d.SessionTTLDuration(); err != nil {
		return nil, err
	}
	if _, err := d.DrainDuration(); err != nil {
		return nil, err
	}
	// Peer URLs are validated here for the same reason durations are: a
	// malformed member address must fail at startup, not on the first
	// forwarded request. Membership consistency (node ID in the list, no
	// duplicates) is the cluster layer's job — the CLI may override nodeID.
	for id, peer := range d.Peers {
		if id == "" {
			return nil, fmt.Errorf("config: serve document: peers: empty node ID")
		}
		u, err := url.Parse(peer)
		if err != nil {
			return nil, fmt.Errorf("config: serve document: peers[%s]: %w", id, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("config: serve document: peers[%s]: %q must be http(s)://host[:port]", id, peer)
		}
	}
	return &d, nil
}

// SessionTTLDuration parses the sessionTTL key; ok is reported through the
// pointer being nil when the key is absent.
func (d *ServeDoc) SessionTTLDuration() (*time.Duration, error) {
	return parseOptionalDuration("sessionTTL", d.SessionTTL)
}

// DrainDuration parses the drain key.
func (d *ServeDoc) DrainDuration() (*time.Duration, error) {
	return parseOptionalDuration("drain", d.Drain)
}

func parseOptionalDuration(key, val string) (*time.Duration, error) {
	if val == "" {
		return nil, nil
	}
	dur, err := time.ParseDuration(val)
	if err != nil {
		return nil, fmt.Errorf("config: serve document: %s: %w", key, err)
	}
	if dur < 0 {
		return nil, fmt.Errorf("config: serve document: %s must not be negative", key)
	}
	return &dur, nil
}
