// Package pkg seeds nolockio violations: file and network I/O performed
// while a sync mutex is lexically held.
package pkg

import (
	"net/http"
	"os"
	"sync"
)

// Store keeps a path under a mutex.
type Store struct {
	mu   sync.Mutex
	path string
}

// Load reads the file while s.mu is held.
func (s *Store) Load() ([]byte, error) {
	s.mu.Lock()
	data, err := os.ReadFile(s.path)
	s.mu.Unlock()
	return data, err
}

// Cache guards nothing in particular with a read-write mutex.
type Cache struct {
	mu sync.RWMutex
}

// Fetch performs an HTTP round trip under the read lock.
func (c *Cache) Fetch(url string) error {
	c.mu.RLock()
	resp, err := http.Get(url)
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Disk is a file-system seam: its methods block on the disk.
//
//lint:io
type Disk interface {
	Remove(path string) error
}

// Drop unlinks through the seam while s.mu is held.
func (s *Store) Drop(d Disk) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.Remove(s.path)
}
