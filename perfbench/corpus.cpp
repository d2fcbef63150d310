#include "corpus.h"

#include "descend/engine/extract.h"
#include "descend/engine/padded_string.h"
#include "descend/json/dom.h"
#include "descend/json/serializer.h"
#include "descend/workloads/datasets.h"

namespace perfbench {

const std::vector<descend::bench::QuerySpec>& scan_queries()
{
    static const std::vector<descend::bench::QuerySpec> cases = descend::bench::catalog_subset(
        {"B1", "B2", "B3", "C2", "G1", "N2", "T1", "T2", "W2", "Wi"});
    return cases;
}

const std::vector<descend::bench::QuerySpec>& seek_queries()
{
    static const std::vector<descend::bench::QuerySpec> cases = descend::bench::catalog_subset(
        {"B3r", "C3r", "G2r", "Tsr", "Wir", "W1r", "A1", "C1", "A2", "B2r"});
    return cases;
}

std::vector<std::string> all_datasets()
{
    return descend::workloads::dataset_names();
}

namespace {

void collect_records(const descend::json::Value& value, descend::PaddedView source,
                     std::size_t max_record, std::vector<std::string>& out)
{
    if (!value.is_container()) {
        return;
    }
    std::size_t size = descend::extract_value(source, value.source_offset()).size();
    if (size <= max_record) {
        std::string record = descend::json::serialize(value);
        if (record.size() > 2) {
            out.push_back(std::move(record));
        }
        return;
    }
    for (const descend::json::Member& member : value.members()) {
        collect_records(*member.value, source, max_record, out);
    }
    for (const descend::json::Value* element : value.elements()) {
        collect_records(*element, source, max_record, out);
    }
}

}  // namespace

std::vector<std::string> compact_records(const std::string& dataset,
                                         std::size_t target_bytes,
                                         std::size_t max_record)
{
    std::string text = descend::workloads::generate(dataset, target_bytes);
    descend::PaddedString padded(text);
    descend::json::Document doc = descend::json::parse(text);
    std::vector<std::string> records;
    collect_records(doc.root(), descend::PaddedView(padded), max_record, records);
    return records;
}

}  // namespace perfbench
