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
// core.Session.Snapshot), and encodeRecord copies its memoized encoding.
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
// concurrent use.
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
	// read-only last result (Session.Last) between records whose stored
	// results are equal.
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

// encodeRecord serializes a record for storage; the bytes equal
// json.Marshal(rec). It marshals the record without the session's last
// result, then splices the result in through ResultSnapshot.AppendJSON, which
// copies a memoized encoding instead of encoding (and re-scanning every flow
// of) the whole evaluated space again. The session snapshot is the record's
// last field and its last result the snapshot's last field, so the result
// goes right before the two closing braces.
func encodeRecord(rec *SessionRecord) ([]byte, error) {
	if rec.ID == "" {
		return nil, errors.New("server: session record without ID")
	}
	head := *rec
	var last *core.ResultSnapshot
	if rec.Session != nil && rec.Session.Last != nil {
		sess := *rec.Session
		last, sess.Last = sess.Last, nil
		head.Session = &sess
	}
	blob, err := json.Marshal(&head)
	if err == nil && last != nil {
		blob, err = last.AppendJSON(append(blob[:len(blob)-2], `,"last":`...))
		blob = append(blob, "}}"...)
	}
	if err != nil {
		return nil, fmt.Errorf("server: encoding session record %s: %w", rec.ID, err)
	}
	return blob, nil
}

// decodeRecord parses a stored record, rejecting formats newer than this
// build understands (a downgraded binary must not half-load future records).
func decodeRecord(blob []byte) (*SessionRecord, error) {
	var rec SessionRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return nil, fmt.Errorf("server: decoding session record: %w", err)
	}
	if err := checkRecord(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// listedRecord is a stored record as a listing decodes it: the session's
// last result stays raw bytes, so that it is decoded once per distinct
// encoding rather than once per record.
type listedRecord struct {
	SessionRecord
	Session *struct {
		core.SessionSnapshot
		Last json.RawMessage `json:"last"`
	} `json:"session"`
}

// decodeListedRecord is decodeRecord for a listing: records whose last
// results are byte-equal share one decoded *core.ResultSnapshot, which lasts
// keeps by those bytes. Equal bytes decode to equal snapshots, so the record
// is the one decodeRecord returns.
func decodeListedRecord(blob []byte, lasts map[string]*core.ResultSnapshot) (*SessionRecord, error) {
	var lr listedRecord
	if err := json.Unmarshal(blob, &lr); err != nil {
		return nil, fmt.Errorf("server: decoding session record: %w", err)
	}
	rec := &lr.SessionRecord
	if sess := lr.Session; sess != nil {
		rec.Session = &sess.SessionSnapshot
		if raw := sess.Last; len(raw) > 0 && string(raw) != "null" {
			last, ok := lasts[string(raw)]
			if !ok {
				last = new(core.ResultSnapshot)
				if err := json.Unmarshal(raw, last); err != nil {
					return nil, fmt.Errorf("server: decoding session record: %w", err)
				}
				lasts[string(raw)] = last
			}
			rec.Session.Last = last
		}
	}
	if err := checkRecord(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// checkRecord rejects a decoded record without an ID or with a newer format
// version than this build writes.
func checkRecord(rec *SessionRecord) error {
	if rec.ID == "" {
		return errors.New("server: session record without ID")
	}
	if rec.Version > SessionRecordVersion {
		return fmt.Errorf("server: session record %s has format version %d (this build supports up to %d)",
			rec.ID, rec.Version, SessionRecordVersion)
	}
	return nil
}

// SessionRecordVersion is the current record format; it wraps (and moves in
// lockstep with) core.SnapshotFormatVersion.
const SessionRecordVersion = 1
