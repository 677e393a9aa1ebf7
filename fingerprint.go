package stash

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// fingerprintVersion is folded into every fingerprint. Bump it when the
// canonical encoding — or the simulator's observable behaviour for an
// unchanged Config — changes, so stale cached results can never be
// served for semantically different cells.
//
// v2 accompanied the cellcache storage redesign (self-describing "sce2"
// entry frames, pluggable engines): bumping the key version retires
// every entry persisted by v1 daemons in one stroke, so a new binary
// pointed at an old cache directory can never replay bytes produced
// under the old on-disk discipline. Codec identity is deliberately NOT
// key material — it lives in each stored entry's frame header, so the
// same cell hits regardless of which compression the cache runs.
//
// v3 is the L1 reservation-fail model: an access that finds no free
// MSHR or registration slot stalls before choosing a victim, so it
// evicts nothing. Scratch, ScratchG and Cache cells changed results
// under an unchanged Config; v3 retires their v2 entries.
//
// v4 is the single energy model: every structure charges its array
// reads and writes as separate classes, with or without a technology
// axis, so a nil axis prices energy as an explicit "sram" profile does.
// Stash and StashG cells moved in energy only (fill installs and
// replication copies are now charged as array writes); v4 retires
// their v3 entries.
//
// v5 drops the trace staging ring: traced Results no longer carry its
// always-zero dropped-event counter, and TraceConfig loses the ring's
// size. No simulated number moved, and untraced Results are
// byte-identical to v4's; the bump is for traced cells, whose Results
// changed under an unchanged Config.
const fingerprintVersion = "stash-cell-v5"

// Fingerprint returns the cell's content address: a stable hex SHA-256
// over the workload name and a canonical encoding of the Config. Two
// specs have equal fingerprints exactly when they describe the same
// simulation, so — because every simulation is deterministic — a
// fingerprint fully determines the cell's Result. This is the cache key
// discipline behind cmd/stashd's cell-result cache (DESIGN.md §12).
//
// The canonical encoding is independent of struct field order and of Go
// map iteration: fields are keyed by their JSON names and sorted, zero
// optional fields are omitted (so a default expressed explicitly or
// left zero hashes identically), and integers keep full 64-bit
// precision. The encoding is versioned; fingerprints are comparable
// only within one version.
//
// Fingerprint does not validate the spec — an invalid Config still
// fingerprints (callers that simulate will surface Validate's error) —
// but it fails on a Config that cannot be encoded at all, such as a
// MemOrg outside the six organizations.
func (s RunSpec) Fingerprint() (string, error) {
	cfg, err := canonicalJSON(s.Config)
	if err != nil {
		return "", fmt.Errorf("stash: fingerprinting %s: %w", s.Workload, err)
	}
	h := sha256.New()
	io.WriteString(h, fingerprintVersion)
	h.Write([]byte{0})
	io.WriteString(h, s.Workload)
	h.Write([]byte{0})
	h.Write(cfg)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalJSON encodes v deterministically: marshal, reparse into
// generic form with exact number text preserved, and re-marshal. The
// round trip erases struct field declaration order (objects become maps,
// which encoding/json writes with sorted keys) while json.Number keeps
// 64-bit integers — fault seeds — exact.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}
