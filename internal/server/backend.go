package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"poiesis/internal/config"
	"poiesis/internal/core"
)

// SessionRecord is the unit of session persistence: the service-level
// metadata (identity, liveness, plan count, the creation config document the
// planner is rebuilt from) wrapped around the core.SessionSnapshot that
// carries the analyst's actual state. Records are immutable once handed to a
// backend, which is what lets backends hand them out without copying. Every
// write-through builds a fresh record, but not a fresh last result: the
// snapshot's Last is the planning result's memoized, read-only snapshot,
// shared by every record of every session holding that result (see
// core.Session.Snapshot). The disk backend stores that result once, in a
// file named by the digest of its memoized encoding, and the record names
// the file.
type SessionRecord struct {
	Version  int                   `json:"version"`
	ID       string                `json:"id"`
	Name     string                `json:"name,omitempty"`
	Created  time.Time             `json:"created"`
	LastUsed time.Time             `json:"lastUsed"`
	Plans    int                   `json:"plans,omitempty"`
	Config   *config.Document      `json:"config,omitempty"`
	Session  *core.SessionSnapshot `json:"session"`
}

// ErrRecordNotFound is returned by SessionBackend.Get for unknown IDs.
var ErrRecordNotFound = errors.New("server: session record not found")

// SessionBackend is the pluggable persistence layer of the session registry.
// The server keeps live sessions in memory and serves every read from there.
// Unless the backend keeps no records (Name "memory"), the server writes a
// fresh record through to it on every state-changing operation (create,
// plan completion, select, delete, TTL eviction). At startup it lists the
// backend once: records last used before the TTL cutoff are deleted through
// Delete, and the rest are restored. Implementations must be safe for
// concurrent use, but the server never overlaps two writes of one ID: a
// session's plans and selects write under its own lock, and deletion and
// TTL eviction only take a session no plan or select holds. A backend may
// rely on that order.
//
// The service assumes a single writer per backend: two server processes
// sharing one disk directory would overwrite each other's records. Sharding
// sessions across replicas by ID (each ID owned by exactly one process)
// preserves the single-writer property.
type SessionBackend interface {
	// Put stores rec under rec.ID, replacing any previous record.
	Put(rec *SessionRecord) error
	// Get returns the record for id, or ErrRecordNotFound.
	Get(id string) (*SessionRecord, error)
	// Delete removes the record for id; deleting an absent id is not an
	// error (eviction and explicit deletion may race benignly). Start-up
	// deletes each expired record on its own, so a store that is mostly
	// expired costs one Delete per record: on the disk backend, one
	// directory fsync each.
	Delete(id string) error
	// List returns every stored record, sorted by ID. Backends skip records
	// they cannot decode (reporting them through their own logging) rather
	// than failing the whole listing. Listed records may share one
	// read-only last result (Session.Last): on the disk backend, the
	// records that name one result file share its decoded snapshot.
	List() ([]*SessionRecord, error)
	// Name identifies the backend in stats and logs ("memory", "disk").
	// "memory" means the backend keeps no records: a server over it builds
	// no session record and calls none of the other methods. The server
	// reads the name through any decorator that forwards Name, so a wrapped
	// memory backend is treated the same.
	Name() string
}

// memoryBackendName is the Name of a backend that keeps no records.
const memoryBackendName = "memory"

// memoryBackend is the default SessionBackend. It keeps no records: live
// sessions are held in the server's own session map and die with the
// process. A record nothing can read back is not worth building — a plan's
// snapshot marshals every alternative's flow and costs about as much as the
// plan — so the server, recognizing the name, builds none and makes no
// backend call. The methods serve only callers that use the backend
// directly: writes are dropped and nothing is ever found.
type memoryBackend struct{}

// NewMemoryBackend returns the SessionBackend that keeps no records (the
// default). Sessions do not survive the process; use NewDiskBackend for
// durability.
func NewMemoryBackend() SessionBackend { return memoryBackend{} }

func (memoryBackend) Name() string                       { return memoryBackendName }
func (memoryBackend) Put(*SessionRecord) error           { return nil }
func (memoryBackend) Get(string) (*SessionRecord, error) { return nil, ErrRecordNotFound }
func (memoryBackend) Delete(string) error                { return nil }
func (memoryBackend) List() ([]*SessionRecord, error)    { return nil, nil }

// storedRecord is a SessionRecord as the disk backend stores it: the
// session's last result is not inline but named by Result, the hex SHA-256
// of its result file's bytes. A version-1 record holds it inline instead.
type storedRecord struct {
	SessionRecord
	Result string `json:"result,omitempty"`
}

// encodeRecord serializes a record for storage, its session's last result
// named by digest and left out.
func encodeRecord(rec *SessionRecord, digest string) ([]byte, error) {
	sr := storedRecord{SessionRecord: *rec, Result: digest}
	if rec.Session != nil && rec.Session.Last != nil {
		sess := *rec.Session
		sess.Last = nil
		sr.Session = &sess
	}
	blob, err := json.Marshal(&sr)
	if err != nil {
		return nil, fmt.Errorf("server: encoding session record %s: %w", rec.ID, err)
	}
	return blob, nil
}

// decodeRecord parses a stored record and returns the digest of the result
// file it names ("" for none: no last result, or a version-1 record that
// holds it inline). It rejects formats newer than this build understands (a
// downgraded binary must not half-load future records).
func decodeRecord(blob []byte) (*SessionRecord, string, error) {
	var sr storedRecord
	if err := json.Unmarshal(blob, &sr); err != nil {
		// A newer format may not decode at all: report it as newer.
		var v struct {
			ID      string
			Version int
		}
		if json.Unmarshal(blob, &v) == nil && v.Version > SessionRecordVersion {
			return nil, "", newerRecord(v.ID, v.Version)
		}
		return nil, "", fmt.Errorf("%w: %v", errCorruptRecord, err)
	}
	rec := &sr.SessionRecord
	if rec.ID == "" {
		return nil, "", fmt.Errorf("%w: no ID", errCorruptRecord)
	}
	if rec.Version > SessionRecordVersion {
		return nil, "", newerRecord(rec.ID, rec.Version)
	}
	if sr.Result != "" {
		if err := validRecordID(sr.Result); err != nil {
			return nil, "", fmt.Errorf("%w: %s names result %q", errCorruptRecord, rec.ID, sr.Result)
		}
		if rec.Session == nil {
			return nil, "", fmt.Errorf("%w: %s names a result but carries no session", errCorruptRecord, rec.ID)
		}
	}
	return rec, sr.Result, nil
}

// errCorruptRecord marks a record whose own bytes do not decode.
var errCorruptRecord = errors.New("server: corrupt session record")

// errNewerRecord marks a record skipped for a format newer than this build's.
var errNewerRecord = fmt.Errorf("this build supports up to %d", SessionRecordVersion)

func newerRecord(id string, version int) error {
	return fmt.Errorf("server: session record %s has format version %d (%w)", id, version, errNewerRecord)
}

// SessionRecordVersion is the current record format. Version 2 names the
// last result by the digest of a result file the disk backend stores once
// for all the records naming it; version-1 records, which hold it inline, are
// still read, and a session's next write-through rewrites its record in
// version 2. The core snapshot inside has its own version,
// core.SnapshotFormatVersion.
const SessionRecordVersion = 2
