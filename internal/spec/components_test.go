package spec

import (
	"errors"
	"testing"
)

// TestDeadlineRejectsStatefulFallback: the deadline policy drains its lent
// queue through the fallback's Pop on every pop, so a fallback that keeps
// ordering state across pops is refused with a typed error naming the
// parameter, while stateless fallbacks build.
func TestDeadlineRejectsStatefulFallback(t *testing.T) {
	for _, fb := range []Ref{
		NamedRef("fair"),
		ParamRef("fair", map[string]any{"weights": []any{2, 1}}),
		ParamRef("deadline", map[string]any{"max_consecutive_overdue": 2}),
	} {
		_, err := Make(KindPolicy, ParamRef("deadline", map[string]any{"fallback": fb}), Env{})
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Param != "fallback" {
			t.Errorf("fallback %v: error %v, want *ParamError on fallback", fb, err)
		}
	}
	for _, fb := range []Ref{
		NamedRef("fifo"),
		ParamRef("priority", map[string]any{"prefer": "reads"}),
		ParamRef("deadline", map[string]any{"read_deadline": "1ms"}),
	} {
		if _, err := Make(KindPolicy, ParamRef("deadline", map[string]any{"fallback": fb}), Env{}); err != nil {
			t.Errorf("fallback %v: %v", fb, err)
		}
	}
}
