package sunmap

import (
	"errors"
	"fmt"

	"sunmap/internal/apps"
	"sunmap/internal/topology"
)

// Sentinel errors returned (wrapped) by the public API. Match them with
// errors.Is; the wrapping message carries the offending name or request
// detail.
var (
	// ErrUnknownApp reports a built-in application name that does not
	// exist. Returned by AppByName and by requests referencing an app by
	// name.
	ErrUnknownApp = errors.New("unknown application")
	// ErrUnknownTopology reports a topology name that neither builds a
	// library configuration nor, in a Session request, resolves in that
	// session's scope of synthesized and discovered topologies. Returned
	// by TopologyByName and by requests referencing a topology by name.
	ErrUnknownTopology = errors.New("unknown topology")
	// ErrInfeasible reports a selection in which no candidate satisfied
	// the bandwidth/area/aspect constraints. Session.Select returns it
	// alongside the evaluated report, so callers can both inspect the
	// candidate table and branch on errors.Is(err, ErrInfeasible).
	ErrInfeasible = errors.New("no feasible topology")
	// ErrBadRequest reports a structurally invalid Request (unknown op,
	// missing payload, malformed JSON). The serve layer maps it to HTTP
	// 400; everything else surfaces as 500-class.
	ErrBadRequest = errors.New("invalid request")
	// ErrInternal reports a server-side failure with no more specific
	// classification — the sentinel behind the wire kind "internal".
	// Report.Err wraps it when a remote Report carries an unrecognized
	// (or internal) error kind, so even those errors remain matchable
	// with errors.Is instead of vanishing into an opaque string.
	ErrInternal = errors.New("internal error")
)

// AppByName returns a built-in benchmark application ("vopd", "mpeg4",
// "netproc" or "dsp"). Unknown names return an error wrapping
// ErrUnknownApp. It is the error-returning replacement for the deprecated,
// panicking App.
func AppByName(name string) (*CoreGraph, error) {
	g, err := apps.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("sunmap: %w %q (want one of %v)", ErrUnknownApp, name, apps.Names())
	}
	return g, nil
}

// TopologyByName rebuilds a library topology from its canonical name
// (e.g. "mesh-3x4", "butterfly-4ary2fly", "clos-m4n4r4"). Synthesized
// and discovered topologies are not library members: only the Session
// that built them resolves their names. Unresolvable names, including
// library names past the 4096-terminal size bound, return an error
// wrapping ErrUnknownTopology.
func TopologyByName(name string) (Topology, error) {
	t, err := topology.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("sunmap: %w %q: %w", ErrUnknownTopology, name, err)
	}
	return t, nil
}
