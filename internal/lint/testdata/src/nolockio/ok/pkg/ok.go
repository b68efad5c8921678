// Package pkg is the clean twin of nolockio/bad: copy what you need under
// the lock, release it, then do the I/O — and function literals built under
// a lock run later, outside the critical section.
package pkg

import (
	"os"
	"sync"
)

// Store keeps a path under a mutex.
type Store struct {
	mu   sync.Mutex
	path string
}

// Load snapshots the path under the lock and reads outside it.
func (s *Store) Load() ([]byte, error) {
	s.mu.Lock()
	path := s.path
	s.mu.Unlock()
	return os.ReadFile(path)
}

// Reader returns a closure; the I/O inside it executes after the unlock.
func (s *Store) Reader() func() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.path
	return func() ([]byte, error) {
		return os.ReadFile(path)
	}
}

// Disk is a file-system seam: its methods block on the disk.
//
//lint:io
type Disk interface {
	Remove(path string) error
}

// Drop unlinks through the seam after releasing s.mu.
func (s *Store) Drop(d Disk) error {
	s.mu.Lock()
	path := s.path
	s.mu.Unlock()
	return d.Remove(path)
}

// Namer carries no //lint:io line, so calling it under a lock is fine.
type Namer interface {
	Name() string
}

// Label calls a plain interface under s.mu.
func (s *Store) Label(n Namer) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.path + n.Name()
}
