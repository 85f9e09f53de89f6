// Minimal XML subset codec for the RRDP repository delta protocol
// (RFC 8182 publishes notification/snapshot/delta documents as XML).
//
// Supported subset: elements with double-quoted attributes, nested
// children, text content, self-closing tags, entity escaping of
// & < > " '. Not supported (rejected or skipped): comments, processing
// instructions, DOCTYPE, CDATA, namespaces beyond opaque names, and mixed
// content: an element holds text or children, and whitespace beside
// children is layout, not text.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace ripki::encoding {

struct XmlElement {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<XmlElement> children;
  std::string text;  // character data of an element without children

  /// First attribute value with `name`, or nullptr.
  const std::string* attribute(std::string_view attr_name) const;

  /// First child with `name`, or nullptr.
  const XmlElement* child(std::string_view child_name) const;

  /// All children with `name`.
  std::vector<const XmlElement*> children_named(std::string_view child_name) const;
};

/// Serialises `root` (with an XML declaration line).
std::string xml_encode(const XmlElement& root);

/// Parses one document: optional declaration, one root element.
util::Result<XmlElement> xml_parse(std::string_view text);

/// Escapes character data / attribute values.
std::string xml_escape(std::string_view raw);

}  // namespace ripki::encoding
