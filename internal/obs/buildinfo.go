package obs

import "runtime/debug"

// BuildInfo returns the module version and VCS revision baked into the
// binary by the go toolchain. Either may be "unknown" for test binaries or
// builds outside a checkout; the revision is truncated to 12 characters.
func BuildInfo() (version, revision string) {
	version, revision = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if v := bi.Main.Version; v != "" {
		version = v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			revision = s.Value
			if len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return version, revision
}
