package nwsnet

import (
	"context"
	"reflect"
	"testing"
)

// TestCallsDeclaredOnce holds the typed call surface to one declaration per
// call: no exported method X of Client or LocalTransport may be a
// context-free twin of an XCtx sibling, taking XCtx's arguments minus the
// leading context and returning the same results. LocalTransport.Register,
// which binds a handler to an address, is not such a twin of RegisterCtx.
func TestCallsDeclaredOnce(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(&Client{}), reflect.TypeOf(&LocalTransport{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			if ctxForm, ok := typ.MethodByName(m.Name + "Ctx"); ok && isTwin(m.Type, ctxForm.Type) {
				t.Errorf("%v declares both %s and %sCtx", typ, m.Name, m.Name)
			}
		}
	}
}

// isTwin reports whether method type plain is ctxForm without its leading
// context argument. Both include the receiver as argument 0.
func isTwin(plain, ctxForm reflect.Type) bool {
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	if ctxForm.NumIn() != plain.NumIn()+1 || ctxForm.In(1) != ctxType || ctxForm.NumOut() != plain.NumOut() {
		return false
	}
	for i := 1; i < plain.NumIn(); i++ {
		if plain.In(i) != ctxForm.In(i+1) {
			return false
		}
	}
	for i := 0; i < plain.NumOut(); i++ {
		if plain.Out(i) != ctxForm.Out(i) {
			return false
		}
	}
	return true
}
