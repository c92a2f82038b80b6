// Tests for the detection-path spec grammar and factory registry: parse /
// to_string round-trips, the CLI list grammar, registry construction with
// self-documenting errors, spec round-trips through make (serial and from
// several threads), the guards on a path's context, and every kind's stage
// timings against its declared stages.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detect/transform.h"
#include "paths/registry.h"
#include "paths/workspace.h"
#include "qubo/generator.h"
#include "wireless/mimo.h"

namespace {

namespace pt = hcq::paths;

std::string thrown_message(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected std::invalid_argument";
    return {};
}

TEST(PathSpec, ParsesKindAndOrderedArgs) {
    const auto bare = pt::path_spec::parse("zf");
    EXPECT_EQ(bare.kind, "zf");
    EXPECT_TRUE(bare.args.empty());
    EXPECT_EQ(bare.to_string(), "zf");

    const auto spec = pt::path_spec::parse("gsra:reads=80,sp=0.29,pause_us=1");
    EXPECT_EQ(spec.kind, "gsra");
    ASSERT_EQ(spec.args.size(), 3u);
    EXPECT_EQ(spec.args[0], (std::pair<std::string, std::string>{"reads", "80"}));
    EXPECT_EQ(spec.args[1], (std::pair<std::string, std::string>{"sp", "0.29"}));
    EXPECT_EQ(spec.args[2], (std::pair<std::string, std::string>{"pause_us", "1"}));
    EXPECT_EQ(spec.to_string(), "gsra:reads=80,sp=0.29,pause_us=1");
    ASSERT_NE(spec.find("sp"), nullptr);
    EXPECT_EQ(*spec.find("sp"), "0.29");
    EXPECT_EQ(spec.find("absent"), nullptr);
}

TEST(PathSpec, RejectsMalformedText) {
    EXPECT_THROW((void)pt::path_spec::parse(""), std::invalid_argument);
    EXPECT_THROW((void)pt::path_spec::parse(":width=4"), std::invalid_argument);
    EXPECT_THROW((void)pt::path_spec::parse("kbest:"), std::invalid_argument);
    EXPECT_THROW((void)pt::path_spec::parse("kbest:width"), std::invalid_argument);
    EXPECT_THROW((void)pt::path_spec::parse("kbest:=4"), std::invalid_argument);
    EXPECT_THROW((void)pt::path_spec::parse("kbest:width="), std::invalid_argument);
    EXPECT_THROW((void)pt::path_spec::parse("width=4"), std::invalid_argument);
    // Duplicate keys are a silent-misconfiguration hazard, so they are loud.
    EXPECT_THROW((void)pt::path_spec::parse("sa:reads=4,reads=400"), std::invalid_argument);
}

TEST(PathSpec, ListGrammarSplitsPathsAndAttachesArgs) {
    const auto simple = pt::parse_spec_list("zf,kbest:width=16,gsra");
    ASSERT_EQ(simple.size(), 3u);
    EXPECT_EQ(simple[0].to_string(), "zf");
    EXPECT_EQ(simple[1].to_string(), "kbest:width=16");
    EXPECT_EQ(simple[2].to_string(), "gsra");

    // A bare key=value continues the previous spec; a new kind:key=value
    // (':' before '=') starts a new one.
    const auto mixed = pt::parse_spec_list("sa:reads=4,sweeps=40,gsra:reads=10,zf");
    ASSERT_EQ(mixed.size(), 3u);
    EXPECT_EQ(mixed[0].to_string(), "sa:reads=4,sweeps=40");
    EXPECT_EQ(mixed[1].to_string(), "gsra:reads=10");
    EXPECT_EQ(mixed[2].to_string(), "zf");

    // A key=value after a bare kind opens that kind's argument list.
    const auto opened = pt::parse_spec_list("kbest,width=16,zf");
    ASSERT_EQ(opened.size(), 2u);
    EXPECT_EQ(opened[0].to_string(), "kbest:width=16");
    EXPECT_EQ(opened[1].to_string(), "zf");

    EXPECT_TRUE(pt::parse_spec_list("").empty());
    EXPECT_TRUE(pt::parse_spec_list(",,").empty());
}

TEST(Registry, ListsBuiltinsSorted) {
    EXPECT_EQ(pt::registry::available(),
              (std::vector<std::string>{"fcsd", "gsra", "kbest", "kxra", "mmse", "pt", "sa",
                                        "sic", "sphere", "tabu", "zf"}));
}

TEST(Registry, HelpListsKindsAndKeys) {
    const auto help = pt::registry::help();
    EXPECT_NE(help.find("kbest"), std::string::npos);
    EXPECT_NE(help.find("width"), std::string::npos);
    EXPECT_NE(help.find("gsra"), std::string::npos);
    EXPECT_NE(help.find("pause_us"), std::string::npos);
}

TEST(Registry, UnknownKindErrorListsAvailablePaths) {
    const auto message =
        thrown_message([] { (void)pt::registry::make("warp-drive"); });
    EXPECT_NE(message.find("warp-drive"), std::string::npos);
    EXPECT_NE(message.find("available"), std::string::npos);
    EXPECT_NE(message.find("zf"), std::string::npos);
    EXPECT_NE(message.find("gsra"), std::string::npos);
}

TEST(Registry, UnknownKeyErrorListsAcceptedKeys) {
    const auto message =
        thrown_message([] { (void)pt::registry::make("kbest:breadth=16"); });
    EXPECT_NE(message.find("breadth"), std::string::npos);
    EXPECT_NE(message.find("accepted"), std::string::npos);
    EXPECT_NE(message.find("width"), std::string::npos);

    // A path with no keys says so rather than listing nothing.
    const auto none = thrown_message([] { (void)pt::registry::make("zf:width=4"); });
    EXPECT_NE(none.find("none"), std::string::npos);
}

TEST(Registry, BadValueErrorNamesKeyAndExpectation) {
    const auto not_a_number =
        thrown_message([] { (void)pt::registry::make("kbest:width=wide"); });
    EXPECT_NE(not_a_number.find("width"), std::string::npos);
    EXPECT_NE(not_a_number.find("wide"), std::string::npos);
    EXPECT_NE(not_a_number.find("positive integer"), std::string::npos);

    EXPECT_THROW((void)pt::registry::make("kbest:width=0"), std::invalid_argument);
    EXPECT_THROW((void)pt::registry::make("gsra:reads=-3"), std::invalid_argument);
    const auto bad_double = thrown_message([] { (void)pt::registry::make("gsra:sp=high"); });
    EXPECT_NE(bad_double.find("sp"), std::string::npos);
    EXPECT_NE(bad_double.find("number"), std::string::npos);

    // NaN and the infinities parse as numbers, but a NaN temperature or
    // radius slips past every range check downstream: they are bad values.
    struct non_finite {
        const char* spec;
        const char* key;
        const char* value;
    };
    for (const non_finite bad : {non_finite{"pt:hot=nan", "hot", "nan"},
                                 non_finite{"sa:cold=nan", "cold", "nan"},
                                 non_finite{"sa:hot=inf", "hot", "inf"},
                                 non_finite{"sphere:radius=nan", "radius", "nan"},
                                 non_finite{"gsra:sp=-inf", "sp", "-inf"}}) {
        SCOPED_TRACE(bad.spec);
        const auto message = thrown_message([&] { (void)pt::registry::make(bad.spec); });
        EXPECT_NE(message.find(std::string("key '") + bad.key + "'"), std::string::npos);
        EXPECT_NE(message.find(std::string("value '") + bad.value + "'"), std::string::npos);
        EXPECT_NE(message.find("expected a finite number"), std::string::npos);
    }

    // Values that parse but fall outside the range the path's constructor
    // accepts get the same form, naming the path, the key and the value.
    struct out_of_range {
        const char* spec;
        const char* kind;
        const char* key;
        const char* value;
        const char* expected;  ///< start of the expected form
    };
    for (const out_of_range bad :
         {out_of_range{"sa:cold=2", "sa", "cold", "2", "a number in (0, hot], hot = 1)"},
          out_of_range{"pt:hot=0.5,cold=1", "pt", "cold", "1", "a number in (0, hot], hot = 0.5)"},
          out_of_range{"pt:replicas=1", "pt", "replicas", "1", "an integer >= 2)"},
          out_of_range{"kxra:sp=1", "kxra", "sp", "1", "a number in (0, 1))"},
          out_of_range{"gsra:sp=0", "gsra", "sp", "0", "a number in (0, 1))"},
          out_of_range{"gsra:pause_us=-1", "gsra", "pause_us", "-1", "a finite number >= 0)"},
          out_of_range{"gsra:pause_us=1e300", "gsra", "pause_us", "1e300", "a pause short"},
          out_of_range{"sphere:radius=-1", "sphere", "radius", "-1", "a finite number >= 0)"}}) {
        SCOPED_TRACE(bad.spec);
        const auto message = thrown_message([&] { (void)pt::registry::make(bad.spec); });
        EXPECT_EQ(message.rfind(std::string("paths: ") + bad.kind + ": bad value '" + bad.value +
                                    "' for key '" + bad.key + "' (expected " + bad.expected,
                                0),
                  0u)
            << message;
    }
    // The boundary values themselves are accepted.
    EXPECT_NO_THROW((void)pt::registry::make("sphere:radius=0"));
    EXPECT_NO_THROW((void)pt::registry::make("pt:replicas=2,hot=1,cold=1"));
    EXPECT_NO_THROW((void)pt::registry::make("gsra:pause_us=0"));
}

TEST(Registry, SpecRoundTripsThroughMakeForEveryBuiltin) {
    for (const std::string& kind : pt::registry::available()) {
        SCOPED_TRACE(kind);
        const auto path = pt::registry::make(kind);
        const auto canonical = path->spec();
        EXPECT_EQ(canonical.kind, kind);
        // Canonical spec -> make -> identical name and canonical spec.
        const auto rebuilt = pt::registry::make(canonical.to_string());
        EXPECT_EQ(rebuilt->name(), path->name());
        EXPECT_EQ(rebuilt->spec().to_string(), canonical.to_string());
        EXPECT_EQ(rebuilt->needs_qubo(), path->needs_qubo());
        EXPECT_EQ(rebuilt->stage_names(), path->stage_names());
        EXPECT_EQ(rebuilt->stage_servers(), path->stage_servers());
    }
}

TEST(Registry, ConcurrentMakeMatchesSerialMake) {
    // The kind table is constant data read without a lock: several threads
    // build every kind at once (a data race here is what TSan looks for)
    // and get the canonical specs a serial pass gets.
    const auto kinds = pt::registry::available();
    std::vector<std::string> want;
    want.reserve(kinds.size());
    for (const auto& kind : kinds) want.push_back(pt::registry::make(kind)->spec().to_string());
    std::vector<std::vector<std::string>> got(4);
    std::vector<std::thread> threads;
    threads.reserve(got.size());
    for (auto& specs : got) {
        threads.emplace_back([&kinds, &specs] {
            specs.reserve(kinds.size());
            for (const auto& kind : kinds) {
                specs.push_back(pt::registry::make(kind)->spec().to_string());
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& specs : got) EXPECT_EQ(specs, want);
}

TEST(Registry, KxraDeclaresItsDeviceBank) {
    // kxra is gsra served by K round-robin annealer devices (paper §5): the
    // quantum stage reports K servers, everything else matches gsra.
    const auto kxra = pt::registry::make("kxra:k=4,reads=10");
    EXPECT_EQ(kxra->spec().to_string(), "kxra:k=4,reads=10,sp=0.29,pause_us=1,init=gs");
    EXPECT_EQ(kxra->name(), "GS+RAx4");
    EXPECT_TRUE(kxra->needs_qubo());
    EXPECT_EQ(kxra->stage_names(), (std::vector<std::string>{"classical", "quantum"}));
    EXPECT_EQ(kxra->stage_servers(), (std::vector<std::size_t>{1, 4}));
    // Defaults: k=2.
    EXPECT_EQ(pt::registry::make("kxra")->stage_servers(), (std::vector<std::size_t>{1, 2}));
    EXPECT_THROW((void)pt::registry::make("kxra:k=0"), std::invalid_argument);

    // Every other builtin defaults to one device per stage.
    const auto gsra = pt::registry::make("gsra");
    EXPECT_EQ(gsra->stage_servers(), (std::vector<std::size_t>{1, 1}));
    EXPECT_EQ(pt::registry::make("zf")->stage_servers(), (std::vector<std::size_t>{1}));
}

TEST(Registry, NonDefaultSpecRoundTrips) {
    const auto path = pt::registry::make("gsra:reads=40,sp=0.35,pause_us=2");
    EXPECT_EQ(path->spec().to_string(), "gsra:reads=40,sp=0.35,pause_us=2,init=gs");
    const auto kbest = pt::registry::make("kbest:width=16");
    EXPECT_EQ(kbest->spec().to_string(), "kbest:width=16");
    // Defaults canonicalise to explicit keys, so "kbest" == "kbest:width=8".
    EXPECT_EQ(pt::registry::make("kbest")->spec().to_string(), "kbest:width=8");
}

TEST(Registry, ConventionalPathsHaveNoSolverFormAndNeedNoQubo) {
    for (const char* kind : {"zf", "mmse", "kbest", "sphere", "sic", "fcsd"}) {
        SCOPED_TRACE(kind);
        const auto path = pt::registry::make(kind);
        EXPECT_FALSE(path->needs_qubo());
    }
    for (const char* kind : {"sa", "tabu", "pt", "gsra", "kxra"}) {
        SCOPED_TRACE(kind);
        const auto path = pt::registry::make(kind);
        EXPECT_TRUE(path->needs_qubo());
    }
}

TEST(Registry, GsraInitialiserKey) {
    // The paper's §5 initialiser choice as a spec key.  Unset canonicalises
    // to the default greedy search — the golden link statistics pin that
    // this is byte-for-byte the historical behaviour.
    const auto default_spec = pt::registry::make("gsra")->spec();
    const auto* default_init = default_spec.find("init");
    ASSERT_NE(default_init, nullptr);
    EXPECT_EQ(*default_init, "gs");
    EXPECT_EQ(pt::registry::make("gsra")->name(), "GS+RA");
    EXPECT_EQ(pt::registry::make("gsra:init=gs")->spec().to_string(),
              pt::registry::make("gsra")->spec().to_string());

    EXPECT_EQ(pt::registry::make("gsra:init=tabu")->name(), "Tabu+RA");
    EXPECT_EQ(pt::registry::make("gsra:init=kbest")->name(), "KB+RA");
    EXPECT_EQ(pt::registry::make("kxra:init=kbest")->name(), "KB+RAx2");
    EXPECT_EQ(pt::registry::make("kxra:k=3,init=tabu")->name(), "Tabu+RAx3");

    // Initialiser variants keep the hybrid's two-stage shape.
    const auto kb = pt::registry::make("gsra:init=kbest");
    EXPECT_TRUE(kb->needs_qubo());
    EXPECT_EQ(kb->stage_names(), (std::vector<std::string>{"classical", "quantum"}));

    const auto bad = thrown_message([] { (void)pt::registry::make("gsra:init=warp"); });
    EXPECT_NE(bad.find("init"), std::string::npos);
    EXPECT_NE(bad.find("tabu"), std::string::npos);
    EXPECT_NE(bad.find("kbest"), std::string::npos);

    // The registry help advertises the key.
    EXPECT_NE(pt::registry::help().find("init"), std::string::npos);
}

TEST(Registry, QuboPathRejectsMissingReduction) {
    hcq::util::rng rng(31);
    const auto instance =
        hcq::wireless::noiseless_paper_instance(rng, 2, hcq::wireless::modulation::qpsk);
    const auto path = pt::registry::make("sa:reads=1,sweeps=5");
    hcq::util::rng solve_rng(32);
    pt::workspace ws;
    const pt::path_context ctx{instance, nullptr, solve_rng, &ws};
    EXPECT_THROW((void)path->run(ctx), std::invalid_argument);
}

TEST(Registry, BuiltinPathsRejectMissingWorkspace) {
    hcq::util::rng rng(33);
    const auto instance =
        hcq::wireless::noiseless_paper_instance(rng, 2, hcq::wireless::modulation::qpsk);
    const auto mq = hcq::detect::ml_to_qubo(instance);
    hcq::util::rng solve_rng(34);
    const pt::path_context ctx{instance, &mq, solve_rng};  // ws left null
    for (const char* spec : {"zf", "kbest", "sa:reads=1,sweeps=5", "gsra:reads=1"}) {
        EXPECT_THROW((void)pt::registry::make(spec)->run(ctx), std::invalid_argument) << spec;
    }
}

TEST(Registry, EveryKindEmitsItsDeclaredStages) {
    // A stage timing carries no name: the link names it by its index into
    // stage_names().  So every kind must emit exactly that many finite,
    // non-negative times on every use, and declare one server count per
    // stage.  One result is reused across the kinds, as a worker reuses it.
    hcq::util::rng rng(35);
    const auto instance =
        hcq::wireless::noiseless_paper_instance(rng, 2, hcq::wireless::modulation::qpsk);
    const auto mq = hcq::detect::ml_to_qubo(instance);
    pt::workspace ws;
    pt::path_result out;
    for (const std::string& kind : pt::registry::available()) {
        SCOPED_TRACE(kind);
        const auto path = pt::registry::make(kind);
        const auto names = path->stage_names();
        EXPECT_FALSE(names.empty());
        EXPECT_EQ(path->stage_servers().size(), names.size());
        hcq::util::rng solve_rng(36);
        path->run_into({instance, &mq, solve_rng, &ws}, out);
        ASSERT_EQ(out.stages.size(), names.size());
        for (const pt::stage_time& stage : out.stages) {
            EXPECT_TRUE(std::isfinite(stage.service_us));
            EXPECT_GE(stage.service_us, 0.0);
        }
    }
}

}  // namespace
