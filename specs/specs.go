// Package specs embeds the predefined experiment suite: one JSON document
// per experiment, E1–E14 at small scale (e*.json) and full scale
// (full/e*.json). These documents are the suite's only definition; the
// experiment layer decodes and runs them, and `eagletree sweep -spec FILE`
// runs an edited copy.
package specs

import "embed"

// FS holds e1.json…e14.json and full/e1.json…full/e14.json.
//
//go:embed e*.json full/e*.json
var FS embed.FS
