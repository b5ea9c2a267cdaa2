/**
 * @file
 * qplacer.serve/1 wire-format tests: the JSON layer round-trips the
 * literals the protocol depends on (64-bit seeds, %.17g coordinates),
 * request parsing accepts the documented shapes, and every malformed
 * input comes back as a descriptive error instead of a crash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "pipeline/flow.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace qplacer {
namespace {

JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, &error)) << error;
    return v;
}

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(parseOk("null").serialize(), "null");
    EXPECT_EQ(parseOk("true").serialize(), "true");
    EXPECT_EQ(parseOk("false").serialize(), "false");
    EXPECT_EQ(parseOk("42").serialize(), "42");
    EXPECT_EQ(parseOk("-7").asInt(), -7);
    EXPECT_EQ(parseOk("\"hi\\n\\\"there\\\"\"").asString(), "hi\n\"there\"");
}

TEST(Json, NumberLiteralsSurviveVerbatim)
{
    // Values a double round-trip would mangle must re-emit exactly.
    EXPECT_EQ(parseOk("18446744073709551615").serialize(),
              "18446744073709551615");
    EXPECT_EQ(parseOk("0.1").serialize(), "0.1");
    EXPECT_EQ(parseOk("1e-3").serialize(), "1e-3");
    EXPECT_EQ(parseOk("543988.0396898662").serialize(), "543988.0396898662");
}

TEST(Json, DoubleSerializationRoundTrips)
{
    const double values[] = {0.0, 1.0 / 3.0, 543988.0396898662, -1e-300,
                             3.141592653589793};
    for (double v : values) {
        const std::string text = JsonValue::number(v).serialize();
        EXPECT_EQ(parseOk(text).asDouble(), v) << text;
    }
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    // NaN/inf would print as 'nan'/'inf' -- invalid JSON that breaks
    // NDJSON clients -- so number() collapses them to null.
    EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::quiet_NaN())
                  .serialize(),
              "null");
    EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::infinity())
                  .serialize(),
              "null");
    EXPECT_EQ(JsonValue::number(-std::numeric_limits<double>::infinity())
                  .serialize(),
              "null");
}

TEST(Json, NestedStructureRoundTrips)
{
    const std::string text =
        R"({"a":[1,2,{"b":null}],"c":{"d":"e"},"f":true})";
    EXPECT_EQ(parseOk(text).serialize(), text);
}

TEST(Json, ObjectOrderAndLookup)
{
    JsonValue v = parseOk(R"({"z":1,"a":2})");
    ASSERT_EQ(v.members().size(), 2u);
    EXPECT_EQ(v.members()[0].first, "z");
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->asInt(), 2);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, UnicodeEscapes)
{
    // \u00e9 = e-acute (2-byte UTF-8); surrogate pair = U+1F600.
    EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",           "{",           "[1,]",        "{\"a\":}",
        "{\"a\" 1}",  "\"unclosed",  "01",          "1 2",
        "nul",        "{\"a\":1,}",  "\"\\u12\"",   "\"\\ud83d\"",
    };
    for (const char *text : bad) {
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(text, v, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(Json, RejectsPathologicalNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(deep, v, &error));
}

TEST(Protocol, ParsesMinimalSubmit)
{
    Request req;
    std::string error;
    ASSERT_TRUE(parseRequest(
        R"({"type":"submit","id":"j1","topology":"Falcon"})", req, &error))
        << error;
    EXPECT_EQ(req.type, Request::Type::Submit);
    EXPECT_EQ(req.id, "j1");
    EXPECT_EQ(req.submit.topology, "Falcon");
    EXPECT_EQ(req.submit.mode, PlacerMode::Qplacer);
    EXPECT_EQ(req.submit.seed, 1u);
    EXPECT_EQ(req.submit.progressEvery, -1);
    EXPECT_FALSE(req.submit.wantLayout);
    EXPECT_FALSE(req.submit.isIncremental());
}

TEST(Protocol, ParsesFullSubmit)
{
    Request req;
    std::string error;
    ASSERT_TRUE(parseRequest(
        R"({"type":"submit","id":"j2","topology":"grid3x3",)"
        R"("mode":"classic","seed":18446744073709551615,"segment":250,)"
        R"("set":{"placer.maxIters":120,"legalizer.flowRefine":false},)"
        R"("progress":10,"layout":true,)"
        R"("base":"j1","dirty_qubits":[0,3]})",
        req, &error))
        << error;
    EXPECT_EQ(req.submit.mode, PlacerMode::Classic);
    EXPECT_EQ(req.submit.seed, UINT64_MAX);
    EXPECT_EQ(req.submit.segmentUm, 250.0);
    EXPECT_EQ(req.submit.set.getString("placer.maxIters", ""), "120");
    EXPECT_EQ(req.submit.set.getString("legalizer.flowRefine", ""), "0");
    EXPECT_EQ(req.submit.progressEvery, 10);
    EXPECT_TRUE(req.submit.wantLayout);
    EXPECT_TRUE(req.submit.isIncremental());
    EXPECT_EQ(req.submit.baseId, "j1");
    ASSERT_EQ(req.submit.dirtyQubits.size(), 2u);
    EXPECT_EQ(req.submit.dirtyQubits[1], 3);
}

TEST(Protocol, ParsesDirtyCouplers)
{
    Request req;
    std::string error;
    ASSERT_TRUE(parseRequest(
        R"({"type":"submit","id":"j3","topology":"grid3x3",)"
        R"("base":"j1","dirty_qubits":[7],)"
        R"("dirty_couplers":[[0,3],[4,5]]})",
        req, &error))
        << error;
    EXPECT_TRUE(req.submit.isIncremental());
    ASSERT_EQ(req.submit.dirtyQubits.size(), 1u);
    ASSERT_EQ(req.submit.dirtyCouplers.size(), 2u);
    EXPECT_EQ(req.submit.dirtyCouplers[0].first, 0);
    EXPECT_EQ(req.submit.dirtyCouplers[0].second, 3);
    EXPECT_EQ(req.submit.dirtyCouplers[1].first, 4);
    EXPECT_EQ(req.submit.dirtyCouplers[1].second, 5);
}

TEST(Protocol, ParsesControlRequests)
{
    Request req;
    std::string error;
    ASSERT_TRUE(parseRequest(R"({"type":"ping"})", req, &error)) << error;
    EXPECT_EQ(req.type, Request::Type::Ping);
    ASSERT_TRUE(
        parseRequest(R"({"type":"cancel","id":"j1"})", req, &error))
        << error;
    EXPECT_EQ(req.type, Request::Type::Cancel);
    EXPECT_EQ(req.id, "j1");
    ASSERT_TRUE(parseRequest(R"({"type":"shutdown"})", req, &error))
        << error;
    EXPECT_EQ(req.type, Request::Type::Shutdown);
}

TEST(Protocol, RejectsMalformedRequests)
{
    const char *bad[] = {
        "not json at all",
        R"([1,2,3])",
        R"({"id":"x"})",                                  // no type
        R"({"type":"levitate"})",                         // unknown type
        R"({"type":"submit","topology":"Falcon"})",       // no id
        R"({"type":"submit","id":"","topology":"g"})",    // empty id
        R"({"type":"submit","id":"x"})",                  // no topology
        R"({"type":"submit","id":"x","topology":7})",     // bad topology
        R"({"type":"submit","id":"x","topology":"g","mode":"warp"})",
        R"({"type":"submit","id":"x","topology":"g","seed":-1})",
        R"({"type":"submit","id":"x","topology":"g","seed":1.5})",
        R"({"type":"submit","id":"x","topology":"g","segment":0})",
        R"({"type":"submit","id":"x","topology":"g","progress":-2})",
        R"({"type":"submit","id":"x","topology":"g","progress":1e10})",
        R"({"type":"submit","id":"x","topology":"g","progress":0.5})",
        R"({"type":"submit","id":"x","topology":"g","set":{"bogus":1}})",
        // Reference engines are test oracles, not --set knobs.
        R"({"type":"submit","id":"x","topology":"g","set":{"assigner.referenceEngine":1}})",
        R"({"type":"submit","id":"x","topology":"g","set":{"builder.reference":1}})",
        R"({"type":"submit","id":"x","topology":"g","set":{"legalizer.referenceProbes":1}})",
        // Deleted knob: the multi-die cut penalty is gone.
        R"({"type":"submit","id":"x","topology":"g","set":{"multidie.cutWeight":1}})",
        R"({"type":"submit","id":"x","topology":"g","set":{"placer.maxIters":[1]}})",
        R"({"type":"submit","id":"x","topology":"g","base":""})",
        R"({"type":"submit","id":"x","topology":"g","mode":"human","base":"y"})",
        R"({"type":"submit","id":"x","topology":"g","dirty_qubits":[1]})",
        R"({"type":"submit","id":"x","topology":"g","base":"y","dirty_qubits":[-1]})",
        R"({"type":"submit","id":"x","topology":"g","base":"y","dirty_qubits":[1e10]})",
        R"({"type":"submit","id":"x","topology":"g","dirty_couplers":[[0,1]]})",
        R"({"type":"submit","id":"x","topology":"g","base":"y","dirty_couplers":7})",
        R"({"type":"submit","id":"x","topology":"g","base":"y","dirty_couplers":[[0]]})",
        R"({"type":"submit","id":"x","topology":"g","base":"y","dirty_couplers":[[0,1,2]]})",
        R"({"type":"submit","id":"x","topology":"g","base":"y","dirty_couplers":[[0,-1]]})",
        R"({"type":"submit","id":"x","topology":"g","base":"y","dirty_couplers":[[0,1.5]]})",
        R"({"type":"cancel"})",                           // cancel w/o id
    };
    for (const char *line : bad) {
        Request req;
        std::string error;
        EXPECT_FALSE(parseRequest(line, req, &error)) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(Protocol, ErrorKeepsJobIdWhenRecognizable)
{
    Request req;
    std::string error;
    EXPECT_FALSE(parseRequest(
        R"({"type":"submit","id":"j9","topology":7})", req, &error));
    EXPECT_EQ(req.id, "j9");
}

TEST(Protocol, ResponseBuildersProduceDocumentedShapes)
{
    EXPECT_EQ(makeHello(4).serialize(),
              R"({"type":"hello","schema":"qplacer.serve/1","workers":4})");
    EXPECT_EQ(makeAck("a").serialize(), R"({"type":"ack","id":"a"})");
    EXPECT_EQ(makePong().serialize(), R"({"type":"pong"})");
    EXPECT_EQ(makeBye(2).serialize(), R"({"type":"bye","jobs":2})");
    EXPECT_EQ(
        makeError("a", "boom").serialize(),
        R"({"type":"error","id":"a","message":"boom"})");
    EXPECT_EQ(makeStageBegin("a", "place").serialize(),
              R"({"type":"progress","id":"a","event":"stage_begin",)"
              R"("stage":"place"})");
}

TEST(Protocol, JobReportCarriesStatusAndIncremental)
{
    FlowResult result;
    result.status.code = FlowCode::Cancelled;
    result.status.stage = "place";
    result.status.message = "cancelled";
    result.incremental.incremental = true;
    result.incremental.reusedPrior = true;
    const JsonValue report = jobReportJson(result, 7);

    ASSERT_NE(report.find("status"), nullptr);
    EXPECT_EQ(report.find("status")->find("code")->asString(), "cancelled");
    EXPECT_EQ(report.find("seed")->asInt(), 7);
    ASSERT_NE(report.find("incremental"), nullptr);
    EXPECT_TRUE(report.find("incremental")->find("reused_prior")->asBool());
    // The CLI-only fidelity proxy is reported as null over the wire.
    ASSERT_NE(report.find("fidelity"), nullptr);
    EXPECT_TRUE(report.find("fidelity")->isNull());
    // Single-die: no multidie block at all.
    EXPECT_EQ(report.find("multidie"), nullptr);
}

TEST(Protocol, JobReportCarriesPlaceStopReason)
{
    FlowResult result;
    EXPECT_EQ(jobReportJson(result, 1)
                  .find("place")
                  ->find("stop_reason")
                  ->asString(),
              "not_run");
    result.place.stopReason = PlaceStopReason::Plateau;
    EXPECT_EQ(jobReportJson(result, 1)
                  .find("place")
                  ->find("stop_reason")
                  ->asString(),
              "plateau");
}

TEST(Protocol, JobReportCarriesMultidieBlock)
{
    FlowResult result;
    result.multidie.active = true;
    result.multidie.dies = 2;
    result.multidie.crossingCouplers = 5;
    result.multidie.crossingWirelengthUm = 1234.5;
    result.multidie.dieInstances = {10, 12};
    result.multidie.dieUtilization = {0.5, 0.625};
    const JsonValue report = jobReportJson(result, 1);

    const JsonValue *multidie = report.find("multidie");
    ASSERT_NE(multidie, nullptr);
    EXPECT_EQ(multidie->find("dies")->asInt(), 2);
    EXPECT_EQ(multidie->find("crossing_couplers")->asInt(), 5);
    EXPECT_DOUBLE_EQ(multidie->find("crossing_wl_um")->asDouble(), 1234.5);
    const JsonValue *per_die = multidie->find("per_die");
    ASSERT_NE(per_die, nullptr);
    ASSERT_EQ(per_die->items().size(), 2u);
    EXPECT_EQ(per_die->items()[0].find("instances")->asInt(), 10);
    EXPECT_DOUBLE_EQ(
        per_die->items()[1].find("utilization")->asDouble(), 0.625);
}

} // namespace
} // namespace qplacer
