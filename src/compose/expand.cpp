#include "compose/expand.hpp"

#include <cctype>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace peppher::compose {

namespace {

bool is_word_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Whole-word replacement of identifier `word` by `replacement`.
std::string replace_word(std::string_view text, std::string_view word,
                         std::string_view replacement) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t hit = text.find(word, pos);
    if (hit == std::string_view::npos) {
      out.append(text.substr(pos));
      return out;
    }
    const bool left_ok = hit == 0 || !is_word_char(text[hit - 1]);
    const std::size_t after = hit + word.size();
    const bool right_ok = after >= text.size() || !is_word_char(text[after]);
    out.append(text.substr(pos, hit - pos));
    if (left_ok && right_ok) {
      out.append(replacement);
    } else {
      out.append(text.substr(hit, word.size()));
    }
    pos = after;
  }
  return out;
}

/// All binding combinations for the given template parameters from the
/// recipe (cartesian product over each parameter's value list).
std::vector<Binding> binding_combinations(
    const std::vector<std::string>& template_params, const Recipe& recipe) {
  std::vector<Binding> combos = {Binding{}};
  for (const std::string& param : template_params) {
    const std::vector<std::string>* values = nullptr;
    for (const auto& [name, vals] : recipe.bindings) {
      if (name == param) {
        values = &vals;
        break;
      }
    }
    if (values == nullptr || values->empty()) return {};  // unbound parameter
    std::vector<Binding> next;
    for (const Binding& combo : combos) {
      for (const std::string& value : *values) {
        Binding extended = combo;
        extended.emplace_back(param, value);
        next.push_back(std::move(extended));
      }
    }
    combos = std::move(next);
  }
  return combos;
}

}  // namespace

std::string mangle_type(std::string_view type) {
  std::string out;
  bool last_underscore = false;
  for (char c : std::string(strings::trim(type))) {
    if (is_word_char(c)) {
      out += c;
      last_underscore = false;
    } else if (!last_underscore) {
      out += '_';
      last_underscore = true;
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

std::string substitute_type(std::string_view type, const Binding& binding) {
  std::string out(type);
  for (const auto& [param, value] : binding) {
    out = replace_word(out, param, value);
  }
  return out;
}

namespace {

/// Cartesian product over every tunable's value list.
std::vector<std::vector<std::pair<std::string, std::string>>>
tunable_combinations(const std::vector<desc::TunableDesc>& tunables) {
  std::vector<std::vector<std::pair<std::string, std::string>>> combos = {{}};
  for (const desc::TunableDesc& tunable : tunables) {
    if (tunable.values.empty()) continue;
    std::vector<std::vector<std::pair<std::string, std::string>>> next;
    for (const auto& combo : combos) {
      for (const std::string& value : tunable.values) {
        auto extended = combo;
        extended.emplace_back(tunable.name, value);
        next.push_back(std::move(extended));
      }
    }
    combos = std::move(next);
  }
  return combos;
}

std::string upper_snake(std::string_view name) {
  std::string out;
  for (char c : name) {
    out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

std::vector<std::string> expand_tunables(ComponentTree& tree) {
  std::vector<std::string> report;
  for (ComponentNode& node : tree.components) {
    std::vector<VariantNode> expanded;
    for (VariantNode& variant : node.variants) {
      const auto combos = tunable_combinations(variant.descriptor.tunables);
      if (combos.size() <= 1) {
        // No multi-valued tunables: bind defaults if any, pass through.
        expanded.push_back(std::move(variant));
        continue;
      }
      for (const auto& combo : combos) {
        VariantNode instance = variant;
        instance.descriptor.tunables.clear();  // fully bound now
        std::string suffix;
        std::string defines;
        for (const auto& [name, value] : combo) {
          suffix += "__" + name + "_" + mangle_type(value);
          defines += " -D" + upper_snake(name) + "=" + value;
        }
        instance.descriptor.name += suffix;
        // The defines bind the tunables; PEPPHER_IMPL_NAME lets the shared
        // source name its entry function after the instantiated variant.
        instance.descriptor.compile_options +=
            defines + " -DPEPPHER_IMPL_NAME=" + instance.descriptor.name;
        report.push_back("component '" + node.interface.name + "': variant '" +
                         variant.descriptor.name + "' instantiated as '" +
                         instance.descriptor.name + "'");
        expanded.push_back(std::move(instance));
      }
    }
    node.variants = std::move(expanded);
  }
  return report;
}

std::vector<std::string> expand_generics(ComponentTree& tree) {
  std::vector<std::string> report;
  std::vector<ComponentNode> result;
  for (ComponentNode& node : tree.components) {
    if (!node.interface.is_generic()) {
      result.push_back(std::move(node));
      continue;
    }
    const std::vector<Binding> combos =
        binding_combinations(node.interface.template_params, tree.recipe);
    if (combos.empty()) {
      report.push_back("generic component '" + node.interface.name +
                       "' removed: no type binding provided for its "
                       "template parameter(s)");
      continue;
    }
    for (const Binding& binding : combos) {
      ComponentNode concrete = node;  // deep copy of descriptors
      concrete.expanded_from = node.interface.name;
      concrete.binding = binding;

      std::string suffix;
      for (const auto& [param, value] : binding) {
        (void)param;
        suffix += '_' + mangle_type(value);
      }
      concrete.interface.name = node.interface.name + suffix;
      concrete.interface.template_params.clear();
      concrete.interface.return_type =
          substitute_type(node.interface.return_type, binding);
      for (desc::ParamDesc& p : concrete.interface.params) {
        p.type = substitute_type(p.type, binding);
      }
      for (VariantNode& variant : concrete.variants) {
        variant.descriptor.name += suffix;
        variant.descriptor.interface_name = concrete.interface.name;
      }
      std::string binding_text;
      for (const auto& [param, value] : binding) {
        if (!binding_text.empty()) binding_text += ", ";
        binding_text += param + "=" + value;
      }
      report.push_back("expanded '" + node.interface.name + "' with [" +
                       binding_text + "] into '" + concrete.interface.name + "'");
      result.push_back(std::move(concrete));
    }
  }
  tree.components = std::move(result);
  return report;
}

}  // namespace peppher::compose
