/**
 * @file
 * Wikidata entity dump generator (query Wi).
 *
 * A top-level array of entity objects whose claims objects are keyed by
 * property ids (P31, P279, ...). P150 ("contains administrative
 * territorial entity") appears in roughly 1 in 40 entities with a dozen
 * claims each, reproducing Wi's selectivity. Claims nest
 * mainsnak/datavalue chains, giving depth ~13.
 */
#include "descend/workloads/builder.h"
#include "descend/workloads/datasets.h"

namespace descend::workloads {
namespace {

void emit_claim(JsonBuilder& b, Rng& rng, const std::string& property)
{
    b.begin_object();
    b.key("mainsnak");
    b.begin_object();
    b.key("snaktype");
    b.string_value("value");
    b.key("property");
    b.string_value(property);
    b.key("datavalue");
    b.begin_object();
    b.key("value");
    b.begin_object();
    b.key("entity-type");
    b.string_value("item");
    b.key("numeric-id");
    b.number(rng.below(100000000));
    b.key("id");
    b.string_value(std::string("Q").append(std::to_string(rng.below(100000000))));
    b.end_object();
    b.key("type");
    b.string_value("wikibase-entityid");
    b.end_object();
    b.key("datatype");
    b.string_value("wikibase-item");
    b.end_object();
    b.key("type");
    b.string_value("statement");
    b.key("id");
    // The word is drawn before the number, as it always has been: the
    // seeded documents (and every figure measured on them) stay the same.
    std::string word = random_word(rng, 24);
    b.string_value(std::string("Q").append(std::to_string(rng.below(1000000)))
                       .append("$").append(word));
    b.key("rank");
    b.string_value("normal");
    b.end_object();
}

}  // namespace

std::string generate_wikimedia(std::size_t target_bytes)
{
    Rng rng(0x31c1ed1aULL);
    JsonBuilder b(target_bytes + (target_bytes >> 3));
    b.begin_array();
    std::uint64_t entity = 1;
    while (b.size() < target_bytes) {
        b.begin_object();
        b.key("type");
        b.string_value("item");
        b.key("id");
        b.string_value(std::string("Q").append(std::to_string(entity++)));
        b.key("labels");
        b.begin_object();
        for (const char* lang : {"en", "de", "fr"}) {
            b.key(lang);
            b.begin_object();
            b.key("language");
            b.string_value(lang);
            b.key("value");
            b.string_value(random_sentence(rng, 2));
            b.end_object();
        }
        b.end_object();
        b.key("descriptions");
        b.begin_object();
        b.key("en");
        b.begin_object();
        b.key("language");
        b.string_value("en");
        b.key("value");
        b.string_value(random_sentence(rng, 5));
        b.end_object();
        b.end_object();
        b.key("claims");
        b.begin_object();
        std::uint64_t properties = rng.between(2, 6);
        for (std::uint64_t p = 0; p < properties; ++p) {
            // Not std::string("P") like the ids above: that form moves
            // descend_perfbench's hot loops off their 64-byte offsets.
            std::string property =
                std::string(1, 'P').append(std::to_string(rng.between(17, 5000)));
            if (property == "P150") {
                property = "P151";  // keep P150 under explicit control below
            }
            b.key(property);
            b.begin_array();
            std::uint64_t claims = rng.between(1, 3);
            for (std::uint64_t c = 0; c < claims; ++c) {
                emit_claim(b, rng, property);
            }
            b.end_array();
        }
        if (rng.chance(1, 40)) {
            b.key("P150");
            b.begin_array();
            std::uint64_t claims = rng.between(6, 18);
            for (std::uint64_t c = 0; c < claims; ++c) {
                emit_claim(b, rng, "P150");
            }
            b.end_array();
        }
        b.end_object();
        b.key("sitelinks");
        b.begin_object();
        b.key("enwiki");
        b.begin_object();
        b.key("site");
        b.string_value("enwiki");
        b.key("title");
        b.string_value(random_sentence(rng, 2));
        b.end_object();
        b.end_object();
        b.end_object();
    }
    b.end_array();
    return b.take();
}

}  // namespace descend::workloads
