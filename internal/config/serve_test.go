package config

import (
	"strings"
	"testing"
	"time"
)

func TestParseServe(t *testing.T) {
	doc, err := ParseServe([]byte(`{
		"addr": "0.0.0.0:9090",
		"storeDir": "/var/lib/poiesis/sessions",
		"sessionTTL": "45m",
		"maxSessions": 9,
		"cacheEntries": 32,
		"cacheMB": 16,
		"drain": "5s",
		"nodeID": "a",
		"peers": {"a": "http://10.0.0.1:9090", "b": "http://10.0.0.2:9090"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Addr != "0.0.0.0:9090" || doc.StoreDir != "/var/lib/poiesis/sessions" ||
		doc.MaxSessions != 9 || doc.CacheEntries != 32 || doc.CacheMB != 16 {
		t.Errorf("fields wrong: %+v", doc)
	}
	if doc.NodeID != "a" || len(doc.Peers) != 2 || doc.Peers["b"] != "http://10.0.0.2:9090" {
		t.Errorf("cluster fields wrong: %+v", doc)
	}
	ttl, err := doc.SessionTTLDuration()
	if err != nil || ttl == nil || *ttl != 45*time.Minute {
		t.Errorf("sessionTTL: %v %v", ttl, err)
	}
	drain, err := doc.DrainDuration()
	if err != nil || drain == nil || *drain != 5*time.Second {
		t.Errorf("drain: %v %v", drain, err)
	}
}

func TestParseServeAbsentDurationsAreNil(t *testing.T) {
	doc, err := ParseServe([]byte(`{"storeDir": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := doc.SessionTTLDuration(); d != nil || err != nil {
		t.Errorf("absent sessionTTL: %v %v", d, err)
	}
}

// TestParseServeRejectsSQLStoreKeys pins the removal of the SQL session
// store: a document written for it must fail at startup on the unknown key,
// not silently run with in-memory sessions.
func TestParseServeRejectsSQLStoreKeys(t *testing.T) {
	for _, key := range []string{"storeSQL", "storeSQLDriver"} {
		_, err := ParseServe([]byte(`{"` + key + `": "x"}`))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("%s: want an unknown-field error, got %v", key, err)
		}
	}
}

func TestParseServeRejectsMistakes(t *testing.T) {
	cases := map[string]string{
		"unknown key":       `{"storeDirs": "typo"}`,
		"bad ttl":           `{"sessionTTL": "45 minutes"}`,
		"negative drain":    `{"drain": "-3s"}`,
		"not a json object": `[1,2,3]`,
		"trailing nonsense": `{}garbage`,
		"wrong value type":  `{"maxSessions": "many"}`,
		"bad peer URL":      `{"peers": {"a": "not a url"}}`,
		"peer URL scheme":   `{"peers": {"a": "ftp://x:1"}}`,
		"empty peer ID":     `{"peers": {"": "http://x:1"}}`,
	}
	for name, in := range cases {
		if _, err := ParseServe([]byte(in)); err == nil {
			t.Errorf("%s accepted: %s", name, in)
		} else if !strings.Contains(err.Error(), "config") {
			t.Errorf("%s: error lacks package context: %v", name, err)
		}
	}
}
