/**
 * @file
 * Persistent test corpora — the paper's deployment story (§6: "This is
 * already fast enough to use for nightly regression testing", and
 * §6.2: "the test programs we have generated can be used again in the
 * future to validate the implementation when this currently missing
 * feature is available").
 *
 * Exploration is the expensive stage; the generated test programs are
 * self-contained byte sequences. A corpus file stores them so a CI job
 * can re-run cross-validation against a changed emulator without
 * re-exploring. The format is a simple self-describing text container
 * (stable across versions of this library, diff-friendly in review).
 */
#ifndef POKEEMU_POKEEMU_CORPUS_H
#define POKEEMU_POKEEMU_CORPUS_H

#include <iosfwd>
#include <optional>

#include "pokeemu/pipeline.h"

namespace pokeemu {

/** One corpus entry: everything needed to re-run and classify. */
struct CorpusTest
{
    u64 id = 0;
    /** The full test program (initializer + test insn(s) + hlt). */
    std::vector<u8> code;
    /** Offset of the (first) test instruction within code. */
    u32 test_insn_offset = 0;
    std::string mnemonic;
};

/// @name Serialization idiom shared with checkpoint files
/// (resilience.h): lowercase hex, no separators.
/// @{
std::string hex_encode(const std::vector<u8> &bytes);
/** Throws std::logic_error on odd length or non-hex characters. */
std::vector<u8> hex_decode(const std::string &hex);
/// @}

/** Re-decode the test instruction at @p offset of a persisted test
 *  program (corpora and checkpoints keep only the bytes); nullopt
 *  when the offset is out of range or the bytes do not decode. */
std::optional<arch::DecodedInsn>
decode_test_insn(const std::vector<u8> &code, u32 offset);

/** Serialize @p tests to @p out. */
void save_corpus(std::ostream &out,
                 const std::vector<GeneratedTest> &tests);

/** Parse a corpus; throws std::logic_error on malformed input,
 *  including a test instruction offset outside its program. */
std::vector<CorpusTest> load_corpus(std::istream &in);

/**
 * Re-run every corpus test on the three backends with @p bugs seeded
 * into the Lo-Fi emulator (the "new emulator build" under regression)
 * and classify it exactly as the pipeline's stage 5 does. Throws
 * std::logic_error when a test instruction does not decode.
 */
ExecutionTotals replay_corpus(const std::vector<CorpusTest> &tests,
                              const lofi::BugConfig &bugs);

} // namespace pokeemu

#endif // POKEEMU_POKEEMU_CORPUS_H
