package sunmap_test

import (
	"encoding/json"
	"testing"

	"sunmap"
)

// FuzzParseRequest drives the Request JSON decoder with arbitrary bytes:
// it must never panic, and anything it accepts must be valid and must
// survive a marshal/parse round trip (the wire contract the serve layer
// relies on).
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		`{"op":"select","select":{"app":{"name":"vopd"},"mapping":{"routing":"MP","capacity_mbps":500}}}`,
		`{"id":"x","op":"map","timeout_ms":1000,"map":{"app":{"text":"app t\ncore a area=1\ncore b area=1\nflow a -> b 5\n"},"topology":"mesh-1x2","mapping":{}}}`,
		`{"op":"routing-sweep","routing_sweep":{"app":{"name":"mpeg4"},"topology":"mesh-3x4","mapping":{"objective":"delay"}}}`,
		`{"op":"pareto","pareto":{"app":{"name":"mpeg4"},"topology":"mesh-3x4","mapping":{"routing":"SM"},"steps":3}}`,
		`{"op":"simulate","simulate":{"topology":"mesh-4x4","pattern":"hotspot","hotspot_node":2,"rates":[0.1,0.2]}}`,
		`{"op":"generate","generate":{"app":{"name":"dsp"},"topology":"butterfly-3ary2fly","mapping":{}}}`,
		`{"op":"fault-sweep","fault_sweep":{"app":{"name":"vopd"},"topology":"mesh-3x4","mapping":{"routing":"MP","capacity_mbps":500},"fault":{"k":1}}}`,
		`{"op":"fault-sweep","fault_sweep":{"app":{"name":"mpeg4"},"topology":"mesh-3x4","mapping":{"routing":"SM"},"fault":{"k":3,"elements":"both","samples":128,"seed":7,"force_sampling":true},"sim_rate":0.2,"sim_cycle":2500}}`,
		`{"op":"select","select":{"app":{"name":"vopd"},"mapping":{},"fault":{"k":2,"elements":"switches","reliability_weight":0.5}}}`,
		`{"op":"pareto","pareto":{"app":{"name":"vopd"},"topology":"mesh-3x4","mapping":{},"steps":3,"fault":{"k":1}}}`,
		`{"op":"search","search":{"app":{"name":"mpeg4"},"mapping":{"routing":"MP","capacity_mbps":1000},"search":{"budget":1000,"restarts":2,"seed":7,"max_radix":4,"max_cores_per_switch":4,"max_switches":6}}}`,
		`{"op":"search","search":{"app":{"name":"vopd"},"mapping":{},"search":{},"fault":{"k":1,"reliability_weight":0.5}}}`,
		`{"op":"search","search":{"app":{"name":"vopd"},"mapping":{},"search":{"budget":-5,"max_radix":1}}}`,
		`{"op":"search"}`,
		`{"op":"search","search":{},"map":{}}`,
		`{"op":"fault-sweep","fault_sweep":{"fault":{"k":-1,"elements":"gremlins"}}}`,
		`{"op":"fault-sweep"}`,
		`{"op":"select","select":{"app":{"cores":[{"name":"a","area_mm2":2}],"flows":[{"from":"a","to":"a","mbps":1}]}}}`,
		`{"op":"map","timeout_ms":9223372036855,"map":{"app":{"name":"dsp"},"topology":"mesh-2x3"}}`,
		`{"op":"map","timeout_ms":9223372036854,"map":{"app":{"name":"dsp"},"topology":"mesh-2x3"}}`,
		`{"op":"select"}`,
		`{"op":"nope","select":{}}`,
		`{}`,
		`[]`,
		`{"op":"select","select":{},"map":{}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := sunmap.ParseRequest(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("ParseRequest accepted an invalid request: %v\ninput: %s", err, data)
		}
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		if _, err := sunmap.ParseRequest(blob); err != nil {
			t.Fatalf("round trip rejected: %v\noriginal: %s\nremarshaled: %s", err, data, blob)
		}
	})
}
