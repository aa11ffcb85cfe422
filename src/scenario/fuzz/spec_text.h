// Text persistence for generated scenarios — the failure-archive format.
// When a sweep finds an invariant violation it shrinks the offending
// scenario and writes it with SaveSpec; `bench_scenario_sweep
// --replay=<file>` (or ReplayArchivedSpec) reloads it bit-exactly and
// re-runs the checker. The format is plain text, one `key value...`
// record per line, '#' comments, a versioned header line. Doubles are
// printed with %.17g so every field round-trips exactly:
// SpecFromText(SpecToText(s)) == s, field for field
// (tests/scenario/fuzz/spec_text_test.cc).

#ifndef DGT_SCENARIO_FUZZ_SPEC_TEXT_H_
#define DGT_SCENARIO_FUZZ_SPEC_TEXT_H_

#include <string>

#include "common/result.h"
#include "scenario/fuzz/spec_generator.h"

namespace dgt {

// Serializes the scenario (overlay recipe + full spec). `comment`, if
// non-empty, is embedded as '#' lines after the header — the archive
// writer records the violated invariant there.
std::string SpecToText(const GeneratedScenario& scenario,
                       const std::string& comment = "");

// Strict parse: unknown keys, wrong token counts, malformed numbers,
// truncated files, version mismatches and node or profile counts above
// 65,536 are all InvalidArgument. The decoded spec is additionally passed
// through ValidateScenarioSpec, so a loaded archive is always runnable.
Result<GeneratedScenario> SpecFromText(const std::string& text);

// File wrappers; IoError on filesystem failures.
Status SaveSpec(const GeneratedScenario& scenario, const std::string& path,
                const std::string& comment = "");
Result<GeneratedScenario> LoadSpec(const std::string& path);

}  // namespace dgt

#endif  // DGT_SCENARIO_FUZZ_SPEC_TEXT_H_
