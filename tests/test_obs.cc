/**
 * @file
 * Tests for the instrumentation core (src/common/obs): the GENREUSE_OBS
 * arming spec — every section arms its subsystem, every malformed spec
 * is refused with InvalidArgument naming the offending section and
 * arms nothing — and the shared gate word.
 */

#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "common/eventlog.h"
#include "common/obs.h"
#include "common/profiler.h"
#include "common/rtrace.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/canary.h"
#include "core/reuse_audit.h"

namespace genreuse {
namespace {

uint32_t
gateWord()
{
    return obs::detail::g_gate.load(std::memory_order_relaxed);
}

/** Disarm everything a spec can arm. */
void
disarmAll()
{
    profiler::setEnabled(false);
    profiler::setTimelineCapture(false);
    eventlog::setBlackboxPath("");
    eventlog::setEnabled(false);
    rtrace::setExport("");
    rtrace::setEnabled(false);
    telemetry::stop();
    audit::setEnabled(false);
    canary::setRate(0.0);
}

struct ObsSandbox
{
    ObsSandbox() { disarmAll(); }
    ~ObsSandbox() { disarmAll(); }
};

std::string
tmp(const char *leaf)
{
    return testing::TempDir() + leaf;
}

TEST(ObsSpec, EverySectionArmsItsSubsystem)
{
    struct Case
    {
        std::string spec;
        bool (*armed)();
    };
    const std::vector<Case> cases = {
        {"prof=" + tmp("obs_prof.json"),
         [] {
             return profiler::enabled() && profiler::timelineActive();
         }},
        {"events=" + tmp("obs_events.json"),
         [] {
             return eventlog::enabled() &&
                    eventlog::blackboxPath() == tmp("obs_events.json");
         }},
        {"rtrace=" + tmp("obs_rtrace.json"),
         [] {
             return rtrace::enabled() &&
                    rtrace::exportPath() == tmp("obs_rtrace.json") &&
                    rtrace::sampleRate() == 1;
         }},
        {"rtrace=" + tmp("obs_rtrace.json") + "@3",
         [] { return rtrace::enabled() && rtrace::sampleRate() == 3; }},
        {"telemetry=" + tmp("obs_tsdb.jsonl"),
         [] {
             return telemetry::enabled() &&
                    telemetry::path() == tmp("obs_tsdb.jsonl");
         }},
        {"telemetry=" + tmp("obs_tsdb.jsonl") + "@250ms",
         [] {
             return telemetry::enabled() &&
                    telemetry::intervalNs() == 250'000'000u;
         }},
        {"audit", [] { return audit::enabled(); }},
        {"canary=0.25",
         [] { return canary::enabled() && canary::rate() == 0.25; }},
    };
    for (const Case &c : cases) {
        ObsSandbox sandbox;
        const Status s = obs::arm(c.spec);
        EXPECT_TRUE(s.ok()) << c.spec << ": " << s.toString();
        EXPECT_TRUE(c.armed()) << c.spec;
    }
}

TEST(ObsSpec, CombinedSpecArmsEverySection)
{
    ObsSandbox sandbox;
    const std::string spec =
        "prof=" + tmp("obs_all_prof.json") + ",events=" +
        tmp("obs_all_events.json") + ",rtrace=" +
        tmp("obs_all_rtrace.json") + "@2,telemetry=" +
        tmp("obs_all_tsdb.jsonl") + "@1s,audit,canary=1";
    ASSERT_TRUE(obs::arm(spec).ok());
    EXPECT_TRUE(profiler::enabled());
    EXPECT_TRUE(eventlog::enabled());
    EXPECT_TRUE(rtrace::enabled());
    EXPECT_TRUE(telemetry::enabled());
    EXPECT_TRUE(audit::enabled());
    EXPECT_EQ(canary::rate(), 1.0);
}

TEST(ObsSpec, EmptySpecArmsNothing)
{
    ObsSandbox sandbox;
    const uint32_t before = gateWord();
    EXPECT_TRUE(obs::arm("").ok());
    EXPECT_EQ(gateWord(), before);
}

TEST(ObsSpec, MalformedSpecsNameTheSectionAndArmNothing)
{
    struct Case
    {
        std::string spec;
        std::string names; //!< substring the error must contain
    };
    const std::vector<Case> cases = {
        // Regression: any value used to arm the audit.
        {"audit=false", "'audit'"},
        {"audit=off", "'audit'"},
        {"bogus=1", "'bogus'"},
        {"audit,audit", "'audit'"},
        {"canary=0.5,canary=0.5", "'canary'"},
        // Regression: a non-numeric rate used to become part of the
        // export path.
        {"rtrace=/tmp/rt.json@fast", "'rtrace'"},
        {"rtrace=/tmp/rt.json@0", "'rtrace'"},
        {"rtrace=/tmp/rt.json@-2", "'rtrace'"},
        {"telemetry=/tmp/t.jsonl@soon", "'telemetry'"},
        {"telemetry=/tmp/t.jsonl@0ms", "'telemetry'"},
        {"canary=1.5", "'canary'"},
        {"canary=-0.1", "'canary'"},
        {"canary=often", "'canary'"},
        {"prof=", "'prof'"},
        {"events", "'events'"},
        {"rtrace=@2", "'rtrace'"},
        {"telemetry=@1s", "'telemetry'"},
        {"audit,,canary=0.5", "empty section"},
        // Nothing is armed when a later section is bad.
        {"audit,events=" + tmp("obs_bad.json") + ",canary=2", "'canary'"},
    };
    for (const Case &c : cases) {
        ObsSandbox sandbox;
        const uint32_t before = gateWord();
        const Status s = obs::arm(c.spec);
        EXPECT_EQ(s.code(), ErrorCode::InvalidArgument) << c.spec;
        EXPECT_NE(s.message().find(c.names), std::string::npos)
            << c.spec << " -> " << s.message();
        EXPECT_EQ(gateWord(), before) << c.spec;
        EXPECT_FALSE(audit::enabled()) << c.spec;
        EXPECT_TRUE(eventlog::blackboxPath().empty()) << c.spec;
    }
}

TEST(ObsGate, EachSubsystemOwnsOneBit)
{
    ObsSandbox sandbox;
    const uint32_t before = gateWord();
    trace::setEnabled(true);
    EXPECT_EQ(gateWord(), before | obs::kTrace);
    EXPECT_TRUE(trace::enabled());
    EXPECT_FALSE(eventlog::enabled());
    eventlog::setEnabled(true);
    EXPECT_EQ(gateWord(), before | obs::kTrace | obs::kEvents);
    trace::setEnabled(false);
    EXPECT_FALSE(trace::enabled());
    EXPECT_TRUE(eventlog::enabled());
    eventlog::setEnabled(false);
    EXPECT_EQ(gateWord(), before);
}

TEST(ObsWriteFile, WritesDocumentAndReportsFailure)
{
    const std::string path = tmp("obs_write.json");
    ASSERT_TRUE(obs::writeFile(path, "{}"));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[8] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf, n), "{}\n");
    EXPECT_FALSE(obs::writeFile("/nonexistent/dir/obs.json", "{}"));
}

} // namespace
} // namespace genreuse
